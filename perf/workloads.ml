(* The five workloads. Each run checks its outputs first — a workload
   whose gate fails reports no number — then takes its end-to-end
   metrics from untraced reps and, when traced, its per-layer metrics
   from one separate rep with spans on (see README.md for why each
   workload exists and what every metric means). *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module Summary = Dmx_sim.Stats.Summary
module Trace = Dmx_sim.Trace
module Oracle = Dmx_sim.Oracle
module B = Dmx_quorum.Builder
module Dopt = Dmx_core.Delay_optimal
module Ft = Dmx_core.Ft_delay_optimal
module Reliable = Dmx_core.Reliable
module Wire = Dmx_net.Wire
module Swarm = Dmx_service.Swarm
module Sim_swarm = Dmx_service.Sim_swarm
module Registry = Dmx_obs.Registry
module Snapshot = Dmx_obs.Snapshot
module Model = Dmx_model.Model
module Json = Dmx_model.Json
module R = Results

type opts = {
  seed : int;
  seconds : float;  (** measuring time per workload *)
  trace : bool;  (** add the traced rep and the per-layer metrics *)
  trace_dir : string option;  (** write spans and layers.json here *)
  smoke : bool;  (** tiny sizes, one rep: the test-suite run *)
  trace_capacity : int option;
      (** sim-checked's trace buffer (default 4M entries); the negative
          smoke case shrinks it so the oracle must refuse the run *)
}

let names = [ "sim-heavy"; "sim-checked"; "swarm-sim"; "live-light"; "live-saturated" ]

(* ---- measuring ---- *)

let wall f =
  let t0 = Span.now_ns () in
  let v = f () in
  (v, float_of_int (Span.now_ns () - t0) *. 1e-9)

(* (own user+sys, reaped children's user+sys) CPU seconds *)
let cpu () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime, t.Unix.tms_cutime +. t.Unix.tms_cstime)

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

let median = Micro.median

let percentile a p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  Dmx_obs.Quantile.percentile_sorted a (Array.length a) p

type 'a rep = { value : 'a; wall_s : float; cpu_s : float; setup_s : float }

type 'a measured = {
  runs : 'a rep list;
  setup : float * int;  (** set-up time, sample count *)
  heap_mb : float;  (** peak heap once rep 0 is done *)
}

(* Host interference only ever slows a rep down, so each timing is taken
   from the rep where it is best (lowest): the steadiest estimate of the
   code's own speed. *)
let best runs f = List.fold_left (fun a r -> Float.min a (f r)) infinity runs

(* Runs [f i] for i = 0, 1, ...: once in a traced or smoke run,
   otherwise until one more rep of the mean length so far would end past
   [o.seconds]. Each rep starts from a compacted heap, so no rep pays
   for its predecessor's garbage, and [setup] is timed three times
   before it. Set-up is the median of a rep's three samples, from the
   best rep: interference on a shared host comes in windows of a
   fraction of a second to seconds, which can cover half a run. The heap
   peak is read after rep 0, so it does not grow with the number of reps
   that fit. *)
let reps o ~setup f =
  let deadline = float_of_int (Span.now_ns ()) +. (o.seconds *. 1e9) in
  let heap_mb = ref 0.0 in
  let rec go i acc total =
    Gc.compact ();
    let setup_s = median (Array.init 3 (fun _ -> snd (wall setup))) in
    let c0, _ = cpu () in
    let value, wall_s = wall (fun () -> f i) in
    let c1, _ = cpu () in
    if i = 0 then heap_mb := peak_heap_mb ();
    let acc = { value; wall_s; cpu_s = c1 -. c0; setup_s } :: acc and total = total +. wall_s in
    let mean = total /. float_of_int (i + 1) in
    if o.smoke || o.trace || float_of_int (Span.now_ns ()) +. (mean *. 1e9) > deadline
    then List.rev acc
    else go (i + 1) acc total
  in
  let runs = go 0 [] 0.0 in
  { runs; setup = (best runs (fun r -> r.setup_s), 3 * List.length runs); heap_mb = !heap_mb }

(* Set-up runs use one fixed seed: the cost of a one-op run follows the
   schedule its seed draws (1.6x apart between seeds in swarm-sim), and
   set-up time should measure the code, not the seed. *)
let setup_seed = 1

(* ---- gates and results ---- *)

type gate = { mutable failures : string list; mutable attempted : int; mutable failed : int }

let new_gate () = { failures = []; attempted = 0; failed = 0 }

let check g ok fmt =
  Printf.ksprintf (fun msg -> if not ok then g.failures <- msg :: g.failures) fmt

(* one attempted unit of work; it failed if it added gate failures *)
let attempt g f =
  let before = List.length g.failures in
  let v = f () in
  g.attempted <- g.attempted + 1;
  if List.length g.failures > before then g.failed <- g.failed + 1;
  v

(* Metrics are computed only once the gates have passed; the traced rep
   runs last (so it cannot raise the untraced peak heap) and is gated
   too. *)
let finish o workload g ~metrics ~layers =
  let ok () = g.failures = [] && g.failed = 0 && g.attempted > 0 in
  let m = if ok () then metrics () else [] in
  let l = if ok () && o.trace then layers () else [] in
  let correct = ok () in
  {
    R.workload;
    seed = o.seed;
    seconds = o.seconds;
    correct;
    attempted = max 1 g.attempted;
    failed = (if correct then 0 else max 1 g.failed);
    failures = List.rev g.failures;
    metrics = (if correct then m else []);
    layers = (if correct then l else []);
  }

(* ---- traced-run output ---- *)

let k_engine = Span.id "engine.run"
let k_oracle = Span.id "oracle.check"
let k_checked = Span.id "sim_checked.rep"
let k_twin = Span.id "sim_swarm.run"
let k_swarm = Span.id "swarm.run"

let share part whole = if whole <= 0.0 then 0.0 else part /. whole
let fi = float_of_int

let spans_json () =
  Json.Obj
    (Array.to_list !Span.totals
    |> List.filter (fun (t : Span.total) -> t.Span.count > 0)
    |> List.map (fun (t : Span.total) ->
           ( t.Span.name,
             Json.Obj
               [
                 ("count", R.int t.Span.count);
                 ("total_ns", R.int t.Span.total_ns);
                 ("self_ns", R.int t.Span.self_ns);
                 ("ns_per_call", Json.Number (fi t.Span.total_ns /. fi t.Span.count));
               ] )))

(* "where the time goes": (layer, self ns) rows against the run's wall time *)
let time_table workload ~wall_ns ~ops rows =
  Printf.printf "%s where the time goes (traced rep, %d ops, %.1f ms):\n" workload ops (wall_ns *. 1e-6);
  List.iter
    (fun (layer, ns) ->
      Printf.printf "  %-26s %10.1f ms  %5.1f%%  %10.0f ns/op\n" layer (ns *. 1e-6)
        (100.0 *. share ns wall_ns) (ns /. fi (max 1 ops)))
    rows;
  Json.List
    (List.map
       (fun (layer, ns) ->
         Json.Obj
           [
             ("layer", Json.String layer);
             ("self_ms", Json.Number (ns *. 1e-6));
             ("share", Json.Number (share ns wall_ns));
             ("ns_per_op", Json.Number (ns /. fi (max 1 ops)));
           ])
       rows)

let write_traced o workload ~layers ~extra =
  match o.trace_dir with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Span.write_chrome (Filename.concat dir (workload ^ ".trace.json")) ~workload;
    let oc = open_out (Filename.concat dir (workload ^ ".layers.json")) in
    output_string oc
      (R.to_string
         (Json.Obj
            ([
               ("workload", Json.String workload);
               ("seed", R.int o.seed);
               ("metrics", R.metrics_obj ~samples:false (R.layers layers));
               ("spans", spans_json ());
             ]
            @ extra)));
    output_char oc '\n';
    close_out oc

(* Σ self over every span must equal the root span: children nest inside
   it and nothing is counted twice. *)
let reconcile g workload ~root =
  let sum_self = Span.sum_prefix "" (fun t -> t.Span.self_ns) in
  let root_ns = (Span.total root).Span.total_ns in
  let err = share (Float.abs (fi (sum_self - root_ns))) (fi root_ns) in
  check g (err <= 0.05) "%s: span self times sum to %d ns against a %d ns run (%.1f%% off)" workload
    sum_self root_ns (100.0 *. err);
  Json.Obj
    [
      ("root_ns", R.int root_ns);
      ("sum_self_ns", R.int sum_self);
      ("error_share", Json.Number err);
    ]

(* unit costs shared by every traced run; [kind]/[n] pick the coterie,
   [depth] the event-queue depth, [delay]/[faults] the network model *)
let micro_layers o ~kind ~n ~depth ~delay ~faults =
  let budget_s = if o.smoke then 0.002 else 0.03 in
  let wire = Micro.wire ~budget_s in
  let values =
    [
      ("quorum.build_ms", Micro.quorum_build_ms ~budget_s kind ~n);
      ("event_queue.ns_per_op", Micro.event_queue ~budget_s ~depth);
      ("network.ns_per_transmit", Micro.network ~budget_s ~n ~delay ~faults);
      ("lease.ns_per_cycle", Micro.lease ~budget_s);
      ("obs.ns_per_observe", Micro.obs_observe ~budget_s);
      ("obs.ns_per_incr", Micro.obs_incr ~budget_s);
    ]
    @ List.concat_map
        (fun (f, enc, dec, bytes) ->
          [ ("wire.encode_ns." ^ f, enc); ("wire.decode_ns." ^ f, dec); ("wire.bytes." ^ f, fi bytes) ])
        wire
  in
  (values, fun name -> List.assoc name values)

(* ---- simulator workloads ---- *)

(* the metrics both engine workloads report ([ops] CS per rep, each
   rep's value carrying its op gaps); every timing is the best rep's *)
let sim_e2e ~ops (m : (_ * float array) measured) ~msgs () =
  let best = best m.runs in
  let gaps = snd (List.hd m.runs).value in
  [
    R.e2e "ops_per_s" (fi ops /. best (fun r -> r.wall_s)) ~samples:(List.length m.runs);
    R.e2e "latency_p50_ms" (best (fun r -> percentile (snd r.value) 50.0)) ~samples:(Array.length gaps);
    R.e2e "latency_p99_ms" (best (fun r -> percentile (snd r.value) 99.0)) ~samples:(Array.length gaps);
    R.e2e "cpu_ms_per_op" (best (fun r -> r.cpu_s) *. 1000.0 /. fi ops) ~samples:ops;
    R.e2e "msgs_per_op" msgs;
    R.e2e "peak_heap_mb" m.heap_mb;
    R.e2e "setup_s" (fst m.setup) ~samples:(snd m.setup);
  ]

(* one rep of an engine workload, with its op stamps *)
let stamped run =
  Span.stamping := true;
  let r = Fun.protect ~finally:(fun () -> Span.stamping := false) run in
  (r, Span.take_gaps_ms ())

(* The engine's unit-cost model: one heap push+pop per event and one
   network transmit per message, set against its measured self time. A
   ratio above 1 means the isolated unit costs overstate what the engine
   pays in place. *)
let substrate_model ~self_ns ~pushes ~transmits ~eq_ns ~net_ns =
  let model_ns = (fi pushes *. eq_ns) +. (fi transmits *. net_ns) in
  Printf.printf "  unit-cost model: %d heap ops x %.0f ns + %d transmits x %.0f ns = %.1f ms (%.2f x engine self)\n"
    pushes eq_ns transmits net_ns (model_ns *. 1e-6) (share model_ns self_ns);
  Json.Obj
    [
      ("heap_ops", R.int pushes);
      ("event_queue_ns", Json.Number eq_ns);
      ("transmits", R.int transmits);
      ("network_ns", Json.Number net_ns);
      ("model_ns", Json.Number model_ns);
      ("engine_self_ns", Json.Number self_ns);
      ("ratio", Json.Number (share model_ns self_ns));
    ]

(* An untraced then a traced run of [f], each from a compacted heap.
   Returns the traced run's value and the tracing overhead: the share of
   the traced wall time that the spans added. *)
let paired f =
  Gc.compact ();
  let _, bare = wall f in
  Gc.compact ();
  Span.reset ();
  Span.rep := 1;
  Span.on := true;
  let v, traced = Fun.protect ~finally:(fun () -> Span.on := false) (fun () -> wall f) in
  (v, 1.0 -. (bare /. traced))

let engine_counts snap =
  ( Snapshot.get snap "engine.events",
    Snapshot.get snap "engine.heap.push",
    Snapshot.get snap "engine.heap.peak" )

module Heavy = E.Make (Timed.Make (Dopt))

(* the paper's heavy load: constant delay T = 1, E = 0.5, every site
   saturated (Engine.default), grid quorums *)
let heavy_cfg o seed =
  let n, execs, warmup = if o.smoke then (25, 500, 50) else (81, 20_000, 200) in
  { (E.default ~n) with E.seed; max_executions = execs; warmup }

let heavy_pconfig ~n = Dopt.config (B.req_sets B.Grid ~n)

let sim_heavy o =
  let workload = "sim-heavy" in
  let g = new_gate () in
  let cfg = heavy_cfg o in
  let { E.n; max_executions = execs; warmup; _ } = cfg 0 in
  let build () = heavy_pconfig ~n in
  let gate seed (r : E.report) =
    check g (r.E.violations = 0) "%s seed %d: %d mutual exclusion violations" workload seed r.E.violations;
    check g (not r.E.deadlocked) "%s seed %d: deadlock" workload seed;
    let p50 = Summary.percentile r.E.sync_delay 50.0 in
    check g (Float.abs (p50 -. r.E.mean_delay) < 1e-9)
      "%s seed %d: sync-delay p50 = %g, want T = %g" workload seed p50 r.E.mean_delay;
    List.iter
      (fun (v : Model.verdict) ->
        if v.Model.expectation.Model.metric = Model.Msgs_per_cs then
          check g v.Model.ok "%s seed %d: %s" workload seed v.Model.message)
      (Model.check_measurement (Model.of_report ~source:workload ~kind:B.Grid ~cfg:(cfg seed) r))
  in
  let setup () =
    let r = Heavy.run { (cfg setup_seed) with max_executions = 1; warmup = 0 } (build ()) in
    attempt g (fun () ->
        check g (r.E.violations = 0 && not r.E.deadlocked) "%s: set-up run failed" workload)
  in
  let pc = build () in
  let ops = execs + warmup in
  let m = reps o ~setup (fun i -> stamped (fun () -> Heavy.run (cfg (o.seed + i)) pc)) in
  List.iteri (fun i rep -> attempt g (fun () -> gate (o.seed + i) (fst rep.value))) m.runs;
  let metrics = sim_e2e ~ops m ~msgs:(fst (List.hd m.runs).value).E.messages_per_cs in
  let layers () =
    let (r, reg), overhead =
      paired (fun () ->
          let reg = Registry.create () in
          (Span.span k_engine (fun () -> Heavy.run { (cfg o.seed) with obs = Some reg } pc), reg))
    in
    attempt g (fun () -> gate o.seed r);
    let events, pushes, peak = engine_counts (Registry.snapshot reg) in
    let root = Span.total "engine.run" in
    let root_ns = fi root.Span.total_ns in
    let proto_self = fi (Span.sum_prefix "protocol." (fun t -> t.Span.self_ns)) in
    let calls = Span.sum_prefix "protocol." (fun t -> t.Span.count) in
    let micro, unit_cost =
      micro_layers o ~kind:B.Grid ~n ~depth:peak ~delay:(cfg 0).E.delay ~faults:Net.no_faults
    in
    let transmits = r.E.total_messages * ops / max 1 r.E.executions in
    let self_ns = fi root.Span.self_ns in
    let values =
      [
        ("engine.events_per_op", fi events /. fi ops);
        ("engine.heap_peak", fi peak);
        ("engine.self_share", share self_ns root_ns);
        ("protocol.self_share", share proto_self root_ns);
        ("protocol.calls_per_op", fi calls /. fi ops);
        ("driver.cpu_ms_per_op", best m.runs (fun r -> r.cpu_s) *. 1000.0 /. fi ops);
        ("tracing.overhead_share", overhead);
      ]
      @ micro
    in
    let recon = reconcile g workload ~root:"engine.run" in
    let table =
      time_table workload ~wall_ns:root_ns ~ops
        [ ("engine (self)", self_ns); ("protocol (Timed spans)", proto_self) ]
    in
    let model =
      substrate_model ~self_ns ~pushes ~transmits ~eq_ns:(unit_cost "event_queue.ns_per_op")
        ~net_ns:(unit_cost "network.ns_per_transmit")
    in
    write_traced o workload ~layers:values
      ~extra:
        [
          ("where_the_time_goes", table);
          ("unit_cost_model", model);
          ("reconcile", recon);
          ("messages_by_kind", Json.Obj (List.map (fun (k, v) -> (k, R.int v)) r.E.messages_by_kind));
          ("sync_delay_T", Json.Number (Summary.mean r.E.sync_delay /. r.E.mean_delay));
        ];
    R.layers values
  in
  finish o workload g ~metrics ~layers

module Checked = E.Make (Timed.Make (Ft))

let payload_bytes (e : Trace.entry) =
  match e.Trace.kind with
  | Trace.Send { msg; _ } | Trace.Receive { msg; _ } | Trace.Note msg -> String.length msg
  | Trace.Drop { reason; _ } -> String.length reason
  | _ -> 0

(* No crash: with 5% loss, a crash wedges the ft protocol on about 2% of
   seeds (see README.md, known limits), and a benchmark input must never
   fail. Crash and restart are exercised by swarm-sim. *)
let checked_cfg o seed =
  let n, execs = if o.smoke then (25, 400) else (49, 1000) in
  {
    (E.default ~n) with
    E.seed;
    delay = Net.Exponential { mean = 1.0 };
    faults = { Net.no_faults with Net.loss = 0.05 };
    max_executions = execs;
    warmup = 30;
  }

(* what Runner.of_algo "ft-delay-optimal" builds for a lossy plan (the
   transparency test checks the two agree) *)
let checked_pconfig ~n =
  Ft.config_of_kind ~reliability:Reliable.default ~trust_detector:true B.Grid ~n ~broadcast:false

let sim_checked o =
  let workload = "sim-checked" in
  let g = new_gate () in
  let cfg = checked_cfg o in
  let { E.n; max_executions = execs; warmup; _ } = cfg 0 in
  let build () = checked_pconfig ~n in
  (* Runner relaxes the oracle only for crashes or duplication; this run
     has neither, so every check is on *)
  let ocfg = Oracle.default ~n in
  let capacity = Option.value o.trace_capacity ~default:4_000_000 in
  let rep ?(sink = true) cfg pc =
    let trace = Trace.create ~enabled:sink ~capacity () in
    let r = Span.span k_engine (fun () -> Checked.run ~trace_sink:trace cfg pc) in
    let v = if sink then Some (Span.span k_oracle (fun () -> Oracle.check_trace ocfg trace)) else None in
    (r, v, trace)
  in
  let gate seed ((r : E.report), v, _) =
    (match v with
    | Some v ->
      check g (Oracle.ok v) "%s seed %d: oracle refused the run: %s" workload seed
        (if v.Oracle.truncated then "trace truncated, invariants not checkable"
         else Printf.sprintf "%d violations" (List.length v.Oracle.violations))
    | None -> ());
    check g (r.E.violations = 0) "%s seed %d: %d mutual exclusion violations" workload seed r.E.violations;
    check g (not r.E.deadlocked) "%s seed %d: deadlock" workload seed
  in
  let setup () =
    let out = rep { (cfg setup_seed) with max_executions = 1; warmup = 0 } (build ()) in
    attempt g (fun () -> gate setup_seed out)
  in
  let pc = build () in
  let ops = execs + warmup in
  (* each rep is gated on the spot, so only one rep's trace is live at a
     time and the peak heap is one rep's *)
  let m =
    reps o ~setup (fun i ->
        let ((r, _, _) as out), gaps = stamped (fun () -> rep (cfg (o.seed + i)) pc) in
        attempt g (fun () -> gate (o.seed + i) out);
        (r, gaps))
  in
  let metrics = sim_e2e ~ops m ~msgs:(fst (List.hd m.runs).value).E.messages_per_cs in
  let layers () =
    (* the same seed without a trace sink, spans on: the engine's cost
       with trace recording off *)
    Span.reset ();
    Span.on := true;
    ignore (rep ~sink:false (cfg o.seed) pc);
    Span.on := false;
    let bare_engine_ns = fi (Span.total "engine.run").Span.total_ns in
    let (((r, _, trace) as out), reg), overhead =
      paired (fun () ->
          let reg = Registry.create () in
          (Span.span k_checked (fun () -> rep { (cfg o.seed) with obs = Some reg } pc), reg))
    in
    attempt g (fun () -> gate o.seed out);
    let events, pushes, peak = engine_counts (Registry.snapshot reg) in
    let root_ns = fi (Span.total "sim_checked.rep").Span.total_ns in
    let engine = Span.total "engine.run" in
    let oracle_ns = fi (Span.total "oracle.check").Span.total_ns in
    let proto_self = fi (Span.sum_prefix "protocol." (fun t -> t.Span.self_ns)) in
    let calls = Span.sum_prefix "protocol." (fun t -> t.Span.count) in
    let entries = Trace.entries trace in
    let n_entries = List.length entries in
    let bytes = List.fold_left (fun a e -> a + payload_bytes e) 0 entries in
    let record_ns = Float.max 0.0 (fi engine.Span.total_ns -. bare_engine_ns) in
    let micro, unit_cost =
      micro_layers o ~kind:B.Grid ~n ~depth:peak ~delay:(cfg 0).E.delay ~faults:(cfg 0).E.faults
    in
    let transmits = r.E.total_messages * ops / max 1 r.E.executions in
    let self_ns = fi engine.Span.self_ns in
    let per_exec x = fi x /. fi (max 1 r.E.executions) in
    let values =
      [
        ("engine.events_per_op", fi events /. fi ops);
        ("engine.heap_peak", fi peak);
        ("engine.self_share", share self_ns root_ns);
        ("protocol.self_share", share proto_self root_ns);
        ("protocol.calls_per_op", fi calls /. fi ops);
        ("reliable.retx_per_op", per_exec r.E.retransmissions);
        ("reliable.acks_per_op", per_exec r.E.acks);
        ("trace.entries_per_op", fi n_entries /. fi ops);
        ("trace.payload_bytes_per_entry", share (fi bytes) (fi n_entries));
        ("trace.record_share", share record_ns root_ns);
        ("oracle.share", share oracle_ns root_ns);
        ("driver.cpu_ms_per_op", best m.runs (fun r -> r.cpu_s) *. 1000.0 /. fi ops);
        ("tracing.overhead_share", overhead);
      ]
      @ micro
    in
    let recon = reconcile g workload ~root:"sim_checked.rep" in
    let table =
      time_table workload ~wall_ns:root_ns ~ops
        [ ("engine (self)", self_ns); ("protocol (Timed spans)", proto_self); ("oracle", oracle_ns) ]
    in
    (* recording runs inside both engine and protocol spans (payload
       rendering, trace_event), so it is reported beside the table *)
    Printf.printf "  of which trace recording  %10.1f ms  %5.1f%%  (traced minus untraced engine run)\n"
      (record_ns *. 1e-6) (100.0 *. share record_ns root_ns);
    let model =
      substrate_model ~self_ns ~pushes ~transmits ~eq_ns:(unit_cost "event_queue.ns_per_op")
        ~net_ns:(unit_cost "network.ns_per_transmit")
    in
    write_traced o workload ~layers:values
      ~extra:
        [
          ("where_the_time_goes", table);
          ("unit_cost_model", model);
          ("reconcile", recon);
          ("trace_entries", R.int n_entries);
          ("oracle_ns_per_entry", Json.Number (share oracle_ns (fi n_entries)));
          ("messages_by_kind", Json.Obj (List.map (fun (k, v) -> (k, R.int v)) r.E.messages_by_kind));
        ];
    R.layers values
  in
  finish o workload g ~metrics ~layers

(* ---- lock-service workloads ---- *)

let grants (o : Swarm.outcome) = Array.fold_left (fun a s -> a + s.Swarm.grants) 0 o.Swarm.per_shard

(* worst shard's latency percentile, in ms, and the smallest shard sample *)
let worst_shard (o : Swarm.outcome) p =
  Array.fold_left (fun a s -> Float.max a (Summary.percentile s.Swarm.latency p)) 0.0 o.Swarm.per_shard
  *. 1000.0

let min_samples (o : Swarm.outcome) =
  Array.fold_left (fun a s -> min a (Summary.count s.Swarm.latency)) max_int o.Swarm.per_shard

(* A service run attempts one op per acquire; an acquire fails when it
   is never granted or its lease runs out. The driver also counts a hold
   that dies with a killed node as an expiry: those are the failover a
   killing workload exists to exercise (at most one hold per shard per
   kill), so only the lease machines' own expiries count as failed. A
   run that fails another check counts as at least one failed op. *)
let service_gate g workload ~kills (res : (Swarm.outcome, string) result) =
  let before = List.length g.failures in
  match res with
  | Error e ->
    check g false "%s: %s" workload e;
    g.attempted <- g.attempted + 1;
    g.failed <- g.failed + 1
  | Ok o ->
    check g (Swarm.ok o) "%s: a shard's oracle or occupancy scan failed" workload;
    let lease_expiries = Snapshot.sum_matching ~prefix:"lease.expiries" (Swarm.merged_snapshot o) in
    check g (lease_expiries = 0) "%s: %d leases ran out" workload lease_expiries;
    let lost = ref lease_expiries in
    Array.iter
      (fun s ->
        check g (s.Swarm.grants = s.Swarm.acquires) "%s: shard %d granted %d of %d acquires" workload
          s.Swarm.shard s.Swarm.grants s.Swarm.acquires;
        check g (s.Swarm.expiries <= kills) "%s: shard %d had %d expiries across %d kills" workload
          s.Swarm.shard s.Swarm.expiries kills;
        g.attempted <- g.attempted + s.Swarm.acquires;
        lost := !lost + s.Swarm.acquires - s.Swarm.grants)
      o.Swarm.per_shard;
    if kills > 0 then check g (o.Swarm.rehomed_sessions >= 1) "%s: no session was re-homed" workload;
    g.failed <- g.failed + !lost;
    if List.length g.failures > before && !lost = 0 then g.failed <- g.failed + 1

(* per-layer figures every service run yields from its snapshots *)
let service_layers (o : Swarm.outcome) =
  let snap = Swarm.merged_snapshot o in
  let sum p = fi (Snapshot.sum_matching ~prefix:p snap) in
  let ops = fi (max 1 (grants o)) in
  let per_shard = Array.map (fun s -> fi s.Swarm.grants) o.Swarm.per_shard in
  let mean = Array.fold_left ( +. ) 0.0 per_shard /. fi (Array.length per_shard) in
  let entries = Array.fold_left (fun a s -> a + s.Swarm.trace_entries) 0 o.Swarm.per_shard in
  [
    ("lease.grants_per_tenure", share (sum "lease.grants") (sum "lease.tenures"));
    ("reliable.retx_per_op", sum "reliable.retransmits" /. ops);
    ("reliable.acks_per_op", sum "reliable.acks_sent" /. ops);
    ("trace.entries_per_op", fi entries /. ops);
    ("shard.imbalance", share (Array.fold_left Float.max 0.0 per_shard) mean);
  ]

let msgs_per_op o = fi (Snapshot.get (Swarm.merged_snapshot o) "service.sent") /. fi (max 1 (grants o))

module Twin = Sim_swarm.Run (Timed.Make (Ft))

(* Sim_swarm.run_named's ft-delay-optimal wiring, with the timed
   protocol and codec *)
let twin_run (cfg : Sim_swarm.config) =
  let rto = cfg.Sim_swarm.rto in
  let reliability = { Reliable.rto; backoff = 2.0; rto_max = 16.0 *. rto; ack_delay = 0.1 *. rto } in
  Twin.run cfg
    ~codec:{ Twin.H.encode = Timed.encode Wire.encode_message; decode = Timed.decode Wire.decode_message }
    ~live_stats:(fun st ->
      match Ft.Internal.reliable st with Some r -> Reliable.stats_alist r | None -> [])
    ~attach_obs:(fun st ~labels reg ->
      match Ft.Internal.reliable st with Some r -> Reliable.attach ~labels r reg | None -> ())
    (fun ~shard:_ ->
      Ft.config_of_kind ~reliability ~trust_detector:false cfg.Sim_swarm.quorum ~n:cfg.Sim_swarm.n
        ~broadcast:false)

let twin_cfg o seed =
  let clients, rounds, kill, restart = if o.smoke then (100, 5, 0.1, 0.3) else (2000, 20, 1.0, 3.0) in
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.shards = 16;
    clients;
    rounds;
    think = 0.05;
    hold = 0.002;
    lease = 0.5;
    rto = 0.25;
    quorum = B.Grid;
    seed;
    kills = [ (kill, 1) ];
    restarts = [ (restart, 1) ];
  }

let swarm_sim o =
  let workload = "swarm-sim" in
  let g = new_gate () in
  let setup () =
    service_gate g workload ~kills:0
      (twin_run { (twin_cfg o setup_seed) with Sim_swarm.clients = 1; rounds = 1 })
  in
  let m = reps o ~setup (fun i -> twin_run (twin_cfg o (o.seed + i))) in
  List.iter (fun r -> service_gate g workload ~kills:1 r.value) m.runs;
  let ok_runs =
    List.filter_map (fun r -> Result.to_option r.value |> Option.map (fun v -> { r with value = v })) m.runs
  in
  (* every rep grants clients x rounds *)
  let cpu_per_op () = best ok_runs (fun r -> r.cpu_s /. fi (grants r.value)) *. 1000.0 in
  let metrics () =
    (* virtual-time behaviour comes from the rep run at --seed itself, so
       it is a pure function of the seed *)
    let o0 = (List.hd ok_runs).value in
    [
      R.e2e "ops_per_s" (fi (grants o0) /. best ok_runs (fun r -> r.wall_s)) ~samples:(List.length ok_runs);
      R.e2e "latency_p50_ms" (worst_shard o0 50.0) ~samples:(min_samples o0);
      R.e2e "latency_p99_ms" (worst_shard o0 99.0) ~samples:(min_samples o0);
      R.e2e "cpu_ms_per_op" (cpu_per_op ()) ~samples:(grants o0);
      R.e2e "msgs_per_op" (msgs_per_op o0);
      R.e2e "peak_heap_mb" m.heap_mb;
      R.e2e "setup_s" (fst m.setup) ~samples:(snd m.setup);
    ]
  in
  let layers () =
    let res, overhead = paired (fun () -> Span.span k_twin (fun () -> twin_run (twin_cfg o o.seed))) in
    service_gate g workload ~kills:1 res;
    match res with
    | Error _ -> []
    | Ok out ->
      let ops = grants out in
      let root = Span.total "sim_swarm.run" in
      let root_ns = fi root.Span.total_ns in
      let proto_self = fi (Span.sum_prefix "protocol." (fun t -> t.Span.self_ns)) in
      let codec_ns = fi (Span.sum_prefix "codec." (fun t -> t.Span.total_ns)) in
      let calls = Span.sum_prefix "protocol." (fun t -> t.Span.count) in
      let micro, _ =
        micro_layers o ~kind:B.Grid ~n:5 ~depth:1024 ~delay:(Net.Constant 0.001) ~faults:Net.no_faults
      in
      let values =
        [
          ("protocol.self_share", share proto_self root_ns);
          ("protocol.calls_per_op", fi calls /. fi ops);
          ("sim_swarm.self_share", share (fi root.Span.self_ns) root_ns);
          ("codec.share", share codec_ns root_ns);
          ("driver.cpu_ms_per_op", cpu_per_op ());
          ("tracing.overhead_share", overhead);
        ]
        @ service_layers out @ micro
      in
      let recon = reconcile g workload ~root:"sim_swarm.run" in
      let table =
        time_table workload ~wall_ns:root_ns ~ops
          [
            ("sim_swarm + host + lease + oracle (self)", fi root.Span.self_ns);
            ("protocol (Timed spans)", proto_self);
            ("codec (timed codec)", codec_ns);
          ]
      in
      write_traced o workload ~layers:values
        ~extra:
          [
            ("where_the_time_goes", table);
            ("reconcile", recon);
            ("acquire_max_ms", Json.Number (worst_shard out 100.0));
            ("rehomed_sessions", R.int out.Swarm.rehomed_sessions);
          ];
      R.layers values
  in
  if ok_runs = [] then g.failures <- (workload ^ ": no run completed") :: g.failures;
  finish o workload g ~metrics ~layers

(* one of [parts] equal sub-runs *)
let live_cfg o ~saturated ~parts seed =
  (* rounds scale with --seconds at the rates measured on a 2-vCPU VM:
     a client completes ~37 rounds a second at 20 ms think, ~68 with the
     64 clients saturating the service *)
  let rounds per_s smoke =
    if o.smoke then smoke else max 1 (int_of_float (Float.round (per_s *. o.seconds /. fi parts)))
  in
  let base =
    {
      (Swarm.default ~n:2) with
      Swarm.shards = 4;
      quorum = B.Grid;
      seed;
      timeout = 60.0 +. (4.0 *. o.seconds);
    }
  in
  if saturated then { base with Swarm.clients = 64; rounds = rounds 68.0 20; think = 0.0; hold = 0.0; locks = 16 }
  else { base with Swarm.clients = 32; rounds = rounds 37.0 10; think = 0.02; hold = 0.0005 }

type live_run = { out : Swarm.outcome; w : float; driver_s : float; daemon_s : float }

(* A live run is three sub-runs of equal rounds (one when traced or
   smoke), each from a compacted heap and on its own seed. As in the
   sims, every timing is the best sub-run's: a slow window of the host
   then spoils one sub-run, not the figure. *)
let live o ~saturated =
  let workload = if saturated then "live-saturated" else "live-light" in
  let g = new_gate () in
  let parts = if o.smoke || o.trace then 1 else 3 in
  let cfg i = live_cfg o ~saturated ~parts (o.seed + i) in
  (* set-up time is mostly the supervisor's fixed sleeps, so a few
     samples up front are steady *)
  let setup =
    let k = if o.smoke then 1 else 5 in
    let one () =
      snd
        (wall (fun () ->
             service_gate g workload ~kills:0
               (Swarm.run { (cfg 0) with Swarm.clients = 1; rounds = 1; seed = setup_seed })))
    in
    (median (Array.init k (fun _ -> one ())), k)
  in
  let heap_mb = ref 0.0 in
  let rec sub i acc =
    if i = parts then List.rev acc
    else begin
      Gc.compact ();
      let d0, c0 = cpu () in
      let res, w = wall (fun () -> Span.span k_swarm (fun () -> Swarm.run (cfg i))) in
      let d1, c1 = cpu () in
      if i = 0 then heap_mb := peak_heap_mb ();
      service_gate g workload ~kills:0 res;
      let acc =
        match res with Ok out -> { out; w; driver_s = d1 -. d0; daemon_s = c1 -. c0 } :: acc | Error _ -> acc
      in
      sub (i + 1) acc
    end
  in
  Span.reset ();
  Span.on := o.trace;
  let runs = Fun.protect ~finally:(fun () -> Span.on := false) (fun () -> sub 0 []) in
  let per_op r x = x /. fi (grants r.out) in
  let metrics () =
    let r0 = List.hd runs in
    let samples = List.fold_left (fun a r -> min a (min_samples r.out)) max_int runs in
    [
      R.e2e "ops_per_s" (1.0 /. best runs (fun r -> per_op r r.w)) ~samples:(List.length runs);
      R.e2e "latency_p50_ms" (best runs (fun r -> worst_shard r.out 50.0)) ~samples;
      R.e2e "latency_p99_ms" (best runs (fun r -> worst_shard r.out 99.0)) ~samples;
      R.e2e "cpu_ms_per_op"
        (best runs (fun r -> per_op r (r.driver_s +. r.daemon_s)) *. 1000.0)
        ~samples:(grants r0.out);
      R.e2e "msgs_per_op" (msgs_per_op r0.out);
      R.e2e "peak_heap_mb" !heap_mb;
      R.e2e "setup_s" (fst setup) ~samples:(snd setup);
    ]
  in
  (* Daemons are separate processes: their per-layer figures come from
     the merged snapshot counts, the CPU split, and unit costs measured
     here. *)
  let layers () =
    let { out; w; driver_s; daemon_s } = List.hd runs in
    let cfg = cfg 0 in
    let ops = fi (grants out) in
    let snap = Swarm.merged_snapshot out in
    let get k = fi (Snapshot.get snap k) in
    let micro, c =
      micro_layers o ~kind:B.Grid ~n:cfg.Swarm.n ~depth:1024 ~delay:(Net.Constant 0.001)
        ~faults:Net.no_faults
    in
    let entries = Array.fold_left (fun a s -> a + s.Swarm.trace_entries) 0 out.Swarm.per_shard in
    (* daemon work with a measured unit cost: protocol frames both ways,
       each grant's acquire/grant/release frames and lease cycle, and the
       streamed trace *)
    let attributed_ns =
      (get "service.sent" *. c "wire.encode_ns.sproto_request")
      +. (get "service.received" *. c "wire.decode_ns.sproto_request")
      +. ops
         *. (c "wire.decode_ns.acquire" +. c "wire.encode_ns.grant" +. c "wire.decode_ns.release_lock"
            +. c "lease.ns_per_cycle")
      +. (fi entries *. c "wire.encode_ns.strace32" /. 32.0)
    in
    let daemon_ns = daemon_s *. 1e9 in
    let values =
      [
        ("transport.frames_per_op", get "transport.sent" /. ops);
        ("transport.bytes_per_op", get "transport.bytes_sent" /. ops);
        ("driver.cpu_ms_per_op", driver_s *. 1000.0 /. ops);
        ("daemon.cpu_share", share daemon_s (driver_s +. daemon_s));
        ("daemon.busy_share", share daemon_s (fi cfg.Swarm.n *. w));
        ("daemon.unattributed_share", Float.max 0.0 (1.0 -. share attributed_ns daemon_ns));
      ]
      @ service_layers out @ micro
    in
    let table =
      time_table workload ~wall_ns:(w *. 1e9) ~ops:(grants out)
        [
          ("driver CPU", driver_s *. 1e9);
          ("daemon CPU: wire + lease (unit costs)", attributed_ns);
          ("daemon CPU: unattributed", Float.max 0.0 (daemon_ns -. attributed_ns));
        ]
    in
    write_traced o workload ~layers:values ~extra:[ ("where_the_time_goes", table) ];
    R.layers values
  in
  finish o workload g ~metrics ~layers

let run o = function
  | "sim-heavy" -> sim_heavy o
  | "sim-checked" -> sim_checked o
  | "swarm-sim" -> swarm_sim o
  | "live-light" -> live o ~saturated:false
  | "live-saturated" -> live o ~saturated:true
  | w -> invalid_arg ("unknown workload " ^ w)
