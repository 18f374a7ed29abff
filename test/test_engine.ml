(* The simulation engine itself, exercised through a deliberately trivial
   (and a deliberately broken) protocol. *)

module E = Dmx_sim.Engine
module Proto = Dmx_sim.Protocol
module W = Dmx_sim.Workload

(* A correct centralized protocol: site 0 grants one permit at a time. *)
module Central = struct
  type config = unit
  type message = Req | Grant | Rel

  type state = {
    self : int;
    mutable busy : bool;  (* coordinator side *)
    mutable queue : int list;
    mutable failures_seen : int list;
  }

  let name = "central"
  let describe () = ""
  let message_kind = function Req -> "req" | Grant -> "grant" | Rel -> "rel"
  let pp_message ppf m = Format.pp_print_string ppf (message_kind m)

  let init (ctx : message Proto.ctx) () =
    { self = ctx.self; busy = false; queue = []; failures_seen = [] }

  let grant (ctx : message Proto.ctx) st dst =
    st.busy <- true;
    if dst = ctx.self then ctx.enter_cs () else ctx.send ~dst Grant

  let request_cs (ctx : message Proto.ctx) st =
    if ctx.self = 0 then begin
      if st.busy then st.queue <- st.queue @ [ 0 ] else grant ctx st 0
    end
    else ctx.send ~dst:0 Req

  let release_cs (ctx : message Proto.ctx) st =
    if ctx.self = 0 then begin
      st.busy <- false;
      match st.queue with
      | next :: rest ->
        st.queue <- rest;
        grant ctx st next
      | [] -> ()
    end
    else ctx.send ~dst:0 Rel

  let on_message (ctx : message Proto.ctx) st ~src = function
    | Req -> if st.busy then st.queue <- st.queue @ [ src ] else grant ctx st src
    | Grant -> ctx.enter_cs ()
    | Rel -> (
      st.busy <- false;
      match st.queue with
      | next :: rest ->
        st.queue <- rest;
        grant ctx st next
      | [] -> ())

  let on_timer _ _ _ = ()
  let on_failure _ st site = st.failures_seen <- site :: st.failures_seen
  let on_recovery _ _ _ = ()
end

(* A broken protocol: everyone enters immediately. The engine must detect
   the mutual exclusion violations rather than crash. *)
module Anarchy = struct
  type config = unit
  type message = unit
  type state = unit

  let name = "anarchy"
  let describe () = ""
  let message_kind () = "none"
  let pp_message ppf () = Format.pp_print_string ppf "()"
  let init _ () = ()
  let request_cs (ctx : message Proto.ctx) () = ctx.enter_cs ()
  let release_cs _ () = ()
  let on_message _ () ~src:_ () = ()
  let on_timer _ () _ = ()
  let on_failure _ () _ = ()
  let on_recovery _ () _ = ()
end

module EngC = E.Make (Central)
module EngA = E.Make (Anarchy)

let test_central_runs_clean () =
  let r = EngC.run { (E.default ~n:5) with max_executions = 100; warmup = 10 } () in
  Alcotest.(check int) "violations" 0 r.E.violations;
  Alcotest.(check int) "executions" 100 r.E.executions;
  Alcotest.(check bool) "no deadlock" false r.E.deadlocked

let test_violation_detection () =
  let n = 4 in
  let r =
    EngA.run
      {
        (E.default ~n) with
        workload = W.Burst { requesters = [ 0; 1; 2; 3 ]; at = 0.0 };
        max_executions = 10;
        warmup = 0;
        cs_duration = 5.0;
      }
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "violations detected (%d)" r.E.violations)
    true (r.E.violations > 0)

let test_throughput_accounting () =
  (* central coordinator, everything at site 0, zero-delay self messages:
     with one contender the cycle is exactly E. *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 100;
        warmup = 10;
        cs_duration = 2.0;
      }
      ()
  in
  Alcotest.(check (float 0.01)) "throughput = 1/E" 0.5 r.E.throughput

let test_response_time_accounting () =
  (* remote single contender (site 1): request 1T + grant 1T, then CS. *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1 ]; at = 0.0 };
        max_executions = 2;
        warmup = 0;
        cs_duration = 1.0;
      }
      ()
  in
  Alcotest.(check int) "one execution" 1 r.E.executions;
  Alcotest.(check (float 1e-9)) "response = 2T" 2.0
    (Dmx_sim.Stats.Summary.mean r.E.response_time)

let test_message_counting_excludes_self () =
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        (* only site 0 contends: all its traffic is self-delivered *)
        max_executions = 20;
        warmup = 0;
      }
      ()
  in
  Alcotest.(check int) "no network messages" 0 r.E.total_messages

let test_messages_by_kind () =
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1; 2 ]; at = 0.0 };
        max_executions = 3;
        warmup = 0;
      }
      ()
  in
  (* two requests, two grants, two releases -- the final release may be
     outstanding when the run stops, so allow 1 or 2 *)
  Alcotest.(check int) "req" 2 (List.assoc "req" r.E.messages_by_kind);
  Alcotest.(check int) "grant" 2 (List.assoc "grant" r.E.messages_by_kind)

let test_warmup_excluded () =
  let run warmup =
    EngC.run
      { (E.default ~n:4) with max_executions = 50; warmup; cs_duration = 1.0 }
      ()
  in
  let r0 = run 0 and r10 = run 10 in
  Alcotest.(check int) "quota independent of warmup" r0.E.executions
    r10.E.executions;
  (* steady-state rate: both windows cover 50 executions, so the per-CS
     rate must agree closely even though the windows differ *)
  Alcotest.(check bool)
    (Printf.sprintf "per-CS rate stable (%.2f vs %.2f)" r0.E.messages_per_cs
       r10.E.messages_per_cs)
    true
    (abs_float (r0.E.messages_per_cs -. r10.E.messages_per_cs) < 1.0);
  (* the warmed run ends later on the simulated clock *)
  Alcotest.(check bool) "warmup extends sim time" true
    (r10.E.sim_time > r0.E.sim_time)

let test_crash_notifies_survivors () =
  let seen = ref [] in
  let _ =
    EngC.run
      ~inspect:(fun site st ->
        if st.Central.failures_seen <> [] then
          seen := (site, st.Central.failures_seen) :: !seen)
      {
        (E.default ~n:4) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 20;
        warmup = 0;
        crashes = [ (3.0, 3) ];
        detector = E.Oracle 2.0;
      }
      ()
  in
  (* sites 0,1,2 each learn site 3 died *)
  Alcotest.(check int) "three observers" 3 (List.length !seen);
  List.iter
    (fun (_, fs) -> Alcotest.(check (list int)) "saw site 3" [ 3 ] fs)
    !seen

let test_crashed_site_stops_participating () =
  (* crash the coordinator: remaining requests can never be served; the
     engine reports pending work rather than hanging (max_time bounds). *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Burst { requesters = [ 1; 2 ]; at = 5.0 };
        max_executions = 5;
        warmup = 0;
        crashes = [ (1.0, 0) ];
        max_time = 100.0;
      }
      ()
  in
  Alcotest.(check int) "nothing executed" 0 r.E.executions;
  Alcotest.(check int) "both pending" 2 r.E.pending_at_end

let test_sync_delay_requires_waiter () =
  (* single contender: handoffs are never contended, so no sync samples *)
  let r =
    EngC.run
      {
        (E.default ~n:3) with
        workload = W.Saturated { contenders = 1 };
        max_executions = 30;
        warmup = 5;
      }
      ()
  in
  Alcotest.(check int) "no contended handoffs" 0
    (Dmx_sim.Stats.Summary.count r.E.sync_delay)

let test_trace_consistency () =
  (* structural sanity of the recorded trace: alternating enter/exit per
     the global CS, every receive preceded by a matching send count, times
     non-decreasing *)
  let module Trace = Dmx_sim.Trace in
  let trace = Trace.create ~enabled:true () in
  let _ =
    EngC.run ~trace_sink:trace
      { (E.default ~n:5) with max_executions = 40; warmup = 0 }
      ()
  in
  let entries = Trace.entries trace in
  let last_time = ref 0.0 in
  let in_cs = ref false in
  let sends = ref 0 and recvs = ref 0 in
  List.iter
    (fun e ->
      Alcotest.(check bool) "time monotone" true (e.Trace.time >= !last_time);
      last_time := e.Trace.time;
      match e.Trace.kind with
      | Trace.Enter_cs ->
        Alcotest.(check bool) "no nested CS" false !in_cs;
        in_cs := true
      | Trace.Exit_cs ->
        Alcotest.(check bool) "exit only from CS" true !in_cs;
        in_cs := false
      | Trace.Send _ -> incr sends
      | Trace.Receive _ -> incr recvs
      | _ -> ())
    entries;
  Alcotest.(check bool) "sends cover receives" true (!recvs <= !sends);
  Alcotest.(check bool) "messages flowed" true (!recvs > 0)

let test_poisson_rate_accuracy () =
  (* open-loop arrivals: over a long window the execution rate equals the
     offered rate when the system is far from saturation *)
  let rate = 0.01 in
  let n = 4 in
  let r =
    EngC.run
      {
        (E.default ~n) with
        workload = W.Poisson { rate_per_site = rate };
        max_executions = 400;
        warmup = 20;
        cs_duration = 0.1;
        max_time = 1.0e9;
      }
      ()
  in
  let offered = rate *. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.4f ~ offered %.4f" r.E.throughput offered)
    true
    (abs_float (r.E.throughput -. offered) /. offered < 0.15)

let test_bad_config_rejected () =
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "rejected" true
        (try
           ignore (EngC.run cfg ());
           false
         with Invalid_argument _ -> true))
    [
      { (E.default ~n:0) with n = 0 };
      { (E.default ~n:3) with max_executions = 0 };
      { (E.default ~n:3) with warmup = -1 };
      { (E.default ~n:3) with crashes = [ (1.0, 99) ] };
    ]

(* Seven seeded runs with random per-message delays, so the per-channel
   FIFO watermarks matter: every baseline protocol on a clean network, and
   the FT variant under a fault plan that drives the loss, duplication,
   spike and crash-recovery ([Network.recover]) paths; its reliability
   layer keeps the run live under them. Each carries the MD5 of its
   [Trace.dump], pinned while the per-channel watermark table was still
   cross-checked bit for bit against a dense N x N matrix. *)
let channel_runs () =
  let module R = Dmx_baselines.Runner in
  let module Net = Dmx_sim.Network in
  let n = 9 in
  let base =
    {
      (E.default ~n) with
      max_executions = 40;
      warmup = 5;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
    }
  in
  let faults =
    {
      Net.no_faults with
      Net.loss = 0.1;
      duplication = 0.05;
      delay_spikes = [ (5.0, 15.0, 3.0) ];
    }
  in
  let faulty =
    { base with E.faults; crashes = [ (20.0, 2) ]; recoveries = [ (45.0, 2) ] }
  in
  [
    ("clean", base, R.delay_optimal ~n (), "6eddfa4e4dcbb046e75f74d29d58397a");
    ("clean", base, R.maekawa ~n (), "e5ad28987f98b4a8a7d173aaf2e27426");
    ("clean", base, R.lamport ~n, "7d76bedd8bbf25404bab1a42f40173cc");
    ("clean", base, R.ricart_agrawala ~n, "1a74876db3c683aed1fd488bdf460f76");
    ("clean", base, R.suzuki_kasami ~n, "26f9dbe646ffc80e4c57225afce4788b");
    ("clean", base, R.raymond ~n (), "fb71bf24f63e6ec1d1652a1deeefacae");
    ( "faulty",
      faulty,
      R.ft_delay_optimal ~reliability:Dmx_core.Reliable.default ~n (),
      "9535082cadca440348e8ef12a20f566e" );
  ]

let test_channel_trace_pins () =
  let module Trace = Dmx_sim.Trace in
  let module R = Dmx_baselines.Runner in
  List.iter
    (fun (label, cfg, (r : R.t), digest) ->
      let sink = Trace.create ~enabled:true () in
      ignore (r.R.run_traced ~trace_sink:sink cfg);
      Alcotest.(check string)
        (Printf.sprintf "%s %s: trace digest" r.R.name label)
        digest
        (Digest.to_hex
           (Digest.string (Format.asprintf "%a" Trace.dump sink))))
    (channel_runs ())

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("central protocol baseline", test_central_runs_clean);
      ("violation detection", test_violation_detection);
      ("throughput accounting", test_throughput_accounting);
      ("response time accounting", test_response_time_accounting);
      ("self messages not counted", test_message_counting_excludes_self);
      ("messages by kind", test_messages_by_kind);
      ("warmup excluded from stats", test_warmup_excluded);
      ("crash notifies survivors", test_crash_notifies_survivors);
      ("crashed coordinator stops service", test_crashed_site_stops_participating);
      ("sync delay requires a waiter", test_sync_delay_requires_waiter);
      ("trace consistency", test_trace_consistency);
      ("poisson rate accuracy", test_poisson_rate_accuracy);
      ("bad config rejected", test_bad_config_rejected);
      ("channel trace pins", test_channel_trace_pins);
    ]
