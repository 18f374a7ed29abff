(* Property-based schedule fuzzing with shrinking.

   Seeded random schedules (workload x delay model x protocol x quorum, and
   fault plans for the FT variant) run through the engine; the full trace
   is piped to the Oracle. Any rejection is shrunk via
   Schedule.minimize to a minimal reproducer, persisted as a .dmxrepro file
   (re-executable with `dmx-sim replay`), and reported as a test failure.

   The harness also proves its own teeth: an intentionally broken protocol
   (enters the CS on the first reply instead of the full quorum) must be
   caught, shrunk, and its reproducer must round-trip through the file
   format and still fail.

   Case count defaults to a quick smoke; CI raises it via DMX_FUZZ_CASES
   and collects DMX_FUZZ_DIR/*.dmxrepro as artifacts on failure. *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module W = Dmx_sim.Workload
module T = Dmx_sim.Trace
module O = Dmx_sim.Oracle
module Sch = Dmx_sim.Schedule
module P = Dmx_sim.Protocol
module Rng = Dmx_sim.Rng
module R = Dmx_baselines.Runner
module B = Dmx_quorum.Builder

let cases =
  match
    int_of_string_opt (try Sys.getenv "DMX_FUZZ_CASES" with Not_found -> "")
  with
  | Some c when c > 0 -> c
  | _ -> 30

let repro_dir =
  match Sys.getenv_opt "DMX_FUZZ_DIR" with Some d when d <> "" -> d | _ -> "fuzz-repro"

(* ---- schedule generator ---- *)

let quorum_algos = [ "delay-optimal"; "maekawa" ]

let algos =
  [|
    "delay-optimal";
    "ft-delay-optimal";
    "maekawa";
    "lamport";
    "ricart-agrawala";
    "singhal-dynamic";
    "suzuki-kasami";
    "singhal-heuristic";
    "raymond";
  |]

let pick_kind rng ~n kinds =
  let supported = List.filter (fun k -> B.supports k ~n) kinds in
  match supported with
  | [] -> B.Majority
  | ks -> List.nth ks (Rng.int rng (List.length ks))

let gen seed =
  let rng = Rng.create (9_000 + seed) in
  let algo = algos.(Rng.int rng (Array.length algos)) in
  let n = 5 + Rng.int rng 8 in
  let quorum =
    if List.mem algo quorum_algos then
      B.kind_name
        (pick_kind rng ~n [ B.Grid; B.Tree; B.Majority; B.Hqc; B.Star ])
    else if algo = "ft-delay-optimal" then
      (* constructions with a rebuild story, as in the fault soak *)
      B.kind_name (pick_kind rng ~n [ B.Tree; B.Majority; B.Hqc ])
    else ""
  in
  let delay =
    match Rng.int rng 3 with
    | 0 -> Net.Constant (0.5 +. Rng.float rng 1.0)
    | 1 ->
      let lo = 0.2 +. Rng.float rng 0.5 in
      Net.Uniform { lo; hi = lo +. 0.2 +. Rng.float rng 1.3 }
    | _ -> Net.Exponential { mean = 0.5 +. Rng.float rng 1.0 }
  in
  let workload =
    match Rng.int rng 3 with
    | 0 -> W.Saturated { contenders = 2 + Rng.int rng (n - 1) }
    | 1 -> W.Poisson { rate_per_site = 0.005 +. Rng.float rng 0.05 }
    | _ -> W.Burst { requesters = List.init n Fun.id; at = 0.0 }
  in
  let faulty = algo = "ft-delay-optimal" && Rng.bool rng in
  let faults, crashes, recoveries, detector, reliability =
    if not faulty then (Net.no_faults, [], [], E.Oracle 3.0, false)
    else begin
      let loss = Rng.float rng 0.06 in
      let dup = if Rng.bool rng then Rng.float rng 0.03 else 0.0 in
      let partitions =
        if Rng.bool rng then begin
          let from_t = 15.0 +. Rng.float rng 20.0 in
          let cut = 1 + Rng.int rng (n - 1) in
          [
            {
              Net.from_t;
              until = from_t +. 10.0 +. Rng.float rng 25.0;
              groups =
                [ List.init cut Fun.id; List.init (n - cut) (fun i -> cut + i) ];
            };
          ]
        end
        else []
      in
      let crashes, recoveries =
        if Rng.bool rng then begin
          let site = Rng.int rng n in
          let at = 15.0 +. Rng.float rng 25.0 in
          (* always recover: under suspicion semantics a permanently dead
             arbiter's tenure is unreclaimable by design *)
          ([ (at, site) ], [ (at +. 20.0 +. Rng.float rng 15.0, site) ])
        end
        else ([], [])
      in
      ( { Net.no_faults with Net.loss; duplication = dup; partitions },
        crashes,
        recoveries,
        E.Heartbeat { Dmx_sim.Detector.period = 2.0; timeout = 10.0 },
        true )
    end
  in
  {
    Sch.algo;
    quorum;
    seed = (100 * seed) + 7;
    n;
    execs = (if faulty then 40 else 30);
    warmup = 0;
    cs = 0.5 +. Rng.float rng 1.0;
    delay;
    workload;
    faults;
    crashes;
    recoveries;
    detector;
    reliability;
    stall = 2000.0;
  }

(* ---- oracle configuration per schedule ---- *)

let fault_free (s : Sch.t) = s.Sch.faults = Net.no_faults && s.Sch.crashes = []

let oracle_cfg (s : Sch.t) =
  let base = O.default ~n:s.Sch.n in
  if not (fault_free s) then begin
    (* fairness and bounds are fault-free notions: parked minority
       partitions are overtaken unboundedly, retransmissions are not the
       protocol's message cost. Crashes additionally break the FIFO check
       (recovered reliability layers reuse sequence numbers across epochs)
       and the custody automaton (recovery restores volatile possessions
       the oracle's fail-stop model already voided); duplication breaks
       FIFO too (duplicated copies take independent delays). Mutex and
       coterie intersection stay on for every run. *)
    let crashy = s.Sch.crashes <> [] in
    let dupy = s.Sch.faults.Net.duplication > 0.0 in
    { base with O.fifo = not (crashy || dupy); custody = not crashy }
  end
  else
    let k =
      match s.Sch.quorum with
      | "" -> s.Sch.n
      | q -> (
        match B.parse_kind q with
        | Ok kind -> (B.size_stats (B.req_sets kind ~n:s.Sch.n)).B.k_max
        | Error _ -> s.Sch.n)
    in
    let load =
      match s.Sch.workload with
      | W.Poisson { rate_per_site }
        when rate_per_site *. float_of_int s.Sch.n <= 0.1 ->
        O.Light
      | _ -> O.Heavy
    in
    {
      base with
      O.max_overtake = O.fairness_bound ~algo:s.Sch.algo ~n:s.Sch.n;
      bound_per_cs = O.expected_bound ~algo:s.Sch.algo ~n:s.Sch.n ~k load;
    }

(* ---- shrinking predicates ---- *)

let valid (s : Sch.t) =
  s.Sch.n >= 2
  &&
  match s.Sch.quorum with
  | "" -> true
  | q -> (
    match B.parse_kind q with
    | Ok k -> B.supports k ~n:s.Sch.n
    | Error _ -> false)

let fails ?extra (s : Sch.t) =
  match R.run_schedule ?extra s with
  | Error _ -> false
  | Ok (r, tr) ->
    r.E.violations > 0 || r.E.deadlocked
    ||
    let v = O.check_trace (oracle_cfg s) tr in
    v.O.violations <> [] && not v.O.truncated

let persist_reproducer seed minimal =
  if not (Sys.file_exists repro_dir) then Sys.mkdir repro_dir 0o755;
  let file =
    Filename.concat repro_dir (Printf.sprintf "fuzz-seed-%03d.dmxrepro" seed)
  in
  Sch.to_file minimal file;
  file

(* ---- the corpus ---- *)

(* Each case is an independent seeded schedule, so the corpus fans out on
   domains ([DMX_FUZZ_JOBS], default [Pool.default_jobs]). Workers return
   failure descriptions as data — Alcotest must only be poked from the
   main domain — and shrinking/persistence of rare failures also happens
   here, sequentially, to keep reproducer files and reports ordered. *)
let fuzz_jobs =
  match
    int_of_string_opt (try Sys.getenv "DMX_FUZZ_JOBS" with Not_found -> "")
  with
  | Some j when j >= 1 -> j
  | _ -> Dmx_sim.Pool.default_jobs ()

let test_fuzz_corpus () =
  let outcomes =
    Dmx_sim.Pool.run ~jobs:fuzz_jobs cases (fun i ->
        let seed = i + 1 in
        let s = gen seed in
        match R.run_schedule s with
        | Error e ->
          Some (seed, s, Printf.sprintf "seed %d (%s): %s" seed s.Sch.algo e, false)
        | Ok (r, tr) ->
          let v = O.check_trace (oracle_cfg s) tr in
          let engine_bad = r.E.violations > 0 || r.E.deadlocked in
          if engine_bad || not (O.ok v) then
            Some
              ( seed,
                s,
                (if engine_bad then
                   Printf.sprintf "engine: violations=%d deadlocked=%b"
                     r.E.violations r.E.deadlocked
                 else Format.asprintf "%a" O.pp_verdict v),
                true )
          else None)
  in
  Array.iter
    (function
      | None -> ()
      | Some (_, _, msg, false) -> Alcotest.failf "%s" msg
      | Some (seed, s, msg, true) ->
        let minimal = Sch.minimize ~valid ~fails:(fails ?extra:None) s in
        let file = persist_reproducer seed minimal in
        Alcotest.failf
          "seed %d (%s %s n=%d): %s@.reproducer: %s (re-run with `dmx-sim \
           replay %s`)"
          seed s.Sch.algo
          (if s.Sch.quorum = "" then "-" else s.Sch.quorum)
          s.Sch.n msg file file)
    outcomes

(* ---- an intentionally broken protocol: the harness must catch it ---- *)

(* Maekawa-style arbitration, except the requester enters the CS on the
   FIRST reply instead of waiting for its whole quorum — the classic
   quorum-protocol bug. Instrumented with custody events so the oracle's
   QUORUM check fires alongside the engine's online mutex check. *)
module Broken_proto = struct
  type config = int list array

  type message = Req | Rep | Rel

  type arbiter = { mutable locked_by : int option; queue : int Queue.t }

  type state = {
    quorum : int list;
    arb : arbiter;
    mutable got : int;
    mutable want : bool;
  }

  let name = "broken-first-reply"
  let describe _ = "intentionally broken: CS entry on the first reply"

  let message_kind = function
    | Req -> "request"
    | Rep -> "reply"
    | Rel -> "release"

  let pp_message ppf m = Format.pp_print_string ppf (message_kind m)

  let init (ctx : message P.ctx) req_sets =
    {
      quorum = req_sets.(ctx.P.self);
      arb = { locked_by = None; queue = Queue.create () };
      got = 0;
      want = false;
    }

  let grant (ctx : message P.ctx) st dst =
    st.arb.locked_by <- Some dst;
    ctx.P.trace_event (T.Grant { to_ = dst });
    ctx.P.send ~dst Rep

  let on_message (ctx : message P.ctx) st ~src = function
    | Req -> (
      match st.arb.locked_by with
      | None -> grant ctx st src
      | Some _ -> Queue.push src st.arb.queue)
    | Rep ->
      if st.want then begin
        ctx.P.trace_event (T.Acquire { arbiter = src });
        st.got <- st.got + 1;
        if st.got = 1 then ctx.P.enter_cs ()
      end
    | Rel ->
      if st.arb.locked_by = Some src then begin
        st.arb.locked_by <- None;
        match Queue.take_opt st.arb.queue with
        | Some next -> grant ctx st next
        | None -> ()
      end
      else begin
        let keep = Queue.create () in
        Queue.iter (fun s -> if s <> src then Queue.push s keep) st.arb.queue;
        Queue.clear st.arb.queue;
        Queue.transfer keep st.arb.queue
      end

  let request_cs (ctx : message P.ctx) st =
    st.want <- true;
    st.got <- 0;
    ctx.P.trace_event (T.Adopt_quorum st.quorum);
    List.iter (fun dst -> ctx.P.send ~dst Req) st.quorum

  let release_cs (ctx : message P.ctx) st =
    st.want <- false;
    List.iter (fun dst -> ctx.P.send ~dst Rel) st.quorum

  let on_timer _ _ _ = ()
  let on_failure _ _ _ = ()
  let on_recovery _ _ _ = ()
end

let broken_runner ~n =
  let req_sets = B.req_sets B.Grid ~n in
  let module M = E.Make (Broken_proto) in
  let run_traced ?trace_sink cfg = M.run ?trace_sink cfg req_sets in
  {
    R.name = "broken-first-reply";
    variant = "grid";
    run = (fun cfg -> run_traced cfg);
    run_traced;
  }

let extra = [ ("broken-first-reply", broken_runner) ]

let test_broken_protocol_caught () =
  let s =
    { (Sch.default ~algo:"broken-first-reply" ~n:6) with Sch.execs = 12; seed = 5 }
  in
  let fails s = fails ~extra s in
  Alcotest.(check bool) "the bug reproduces" true (fails s);
  let minimal = Sch.minimize ~valid ~fails s in
  Alcotest.(check bool) "the minimal schedule still fails" true (fails minimal);
  Alcotest.(check bool) "shrinking made progress" true
    (minimal.Sch.n < s.Sch.n
    || minimal.Sch.execs < s.Sch.execs
    || minimal.Sch.workload <> s.Sch.workload);
  (* the reproducer survives persistence: write, reparse, re-fail *)
  let file = Filename.temp_file "dmx-broken" ".dmxrepro" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Sch.to_file minimal file;
      match O.replay_file file with
      | Error e -> Alcotest.fail e
      | Ok s' ->
        Alcotest.(check bool) "file round-trip is exact" true (s' = minimal);
        Alcotest.(check bool) "replayed schedule still fails" true (fails s'))

let test_broken_protocol_oracle_verdict () =
  (* the oracle itself (not just the engine's online check) must flag the
     broken protocol: quorum coverage is violated at entry *)
  let s =
    { (Sch.default ~algo:"broken-first-reply" ~n:6) with Sch.execs = 12; seed = 5 }
  in
  match R.run_schedule ~extra s with
  | Error e -> Alcotest.fail e
  | Ok (_, tr) ->
    let v = O.check_trace (O.default ~n:s.Sch.n) tr in
    Alcotest.(check bool) "oracle rejects" false (O.ok v);
    Alcotest.(check bool) "QUORUM or MUTEX violation present" true
      (List.exists
         (fun (x : O.violation) ->
           let pre p =
             String.length x.O.what >= String.length p
             && String.sub x.O.what 0 (String.length p) = p
           in
           pre "QUORUM" || pre "MUTEX")
         v.O.violations)

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "corpus of %d seeded schedules" cases)
      `Slow test_fuzz_corpus;
    Alcotest.test_case "broken protocol caught, shrunk, replayable" `Quick
      test_broken_protocol_caught;
    Alcotest.test_case "broken protocol rejected by the oracle" `Quick
      test_broken_protocol_oracle_verdict;
  ]
