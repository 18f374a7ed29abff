(* The post-hoc trace oracle: hand-crafted traces exercising each invariant
   (mutex, quorum coverage, coterie intersection, permission custody, FIFO,
   fairness, message bounds, truncation refusal), the independent
   occupancy scan, then real runs of every protocol x quorum construction
   piped through it. *)

module T = Dmx_sim.Trace
module O = Dmx_sim.Oracle
module E = Dmx_sim.Engine
module W = Dmx_sim.Workload
module R = Dmx_baselines.Runner
module B = Dmx_quorum.Builder

let e time site kind = { T.time; site; kind }
let verdict ?(cfg = O.default ~n:4) entries = O.check cfg entries ~truncated:false

let has_violation prefix (v : O.verdict) =
  List.exists
    (fun (x : O.violation) ->
      String.length x.O.what >= String.length prefix
      && String.sub x.O.what 0 (String.length prefix) = prefix)
    v.O.violations

let check_clean label v =
  if not (O.ok v) then
    Alcotest.failf "%s: %a" label O.pp_verdict v

(* ---- hand-crafted traces ---- *)

(* The traces with an injected violation are named, so test_trace.ml can
   replay them through a collector and [O.check_trace] ([injected] below
   lists them with their oracle configs). *)

let mutex_overlap =
  [ e 1.0 0 T.Enter_cs; e 2.0 1 T.Enter_cs; e 3.0 0 T.Exit_cs; e 4.0 1 T.Exit_cs ]

let quorum_missing =
  [
    e 0.0 2 (T.Adopt_quorum [ 0; 1 ]);
    e 1.0 2 (T.Acquire { arbiter = 0 });
    e 2.0 2 T.Enter_cs;
  ]

let custody_duplicated =
  [ e 1.0 1 (T.Acquire { arbiter = 0 }); e 2.0 2 (T.Acquire { arbiter = 0 }) ]

let forward_unheld = [ e 1.0 1 (T.Forward { arbiter = 0; to_ = 2 }) ]

let grant_while_held =
  [ e 1.0 1 (T.Acquire { arbiter = 0 }); e 2.0 0 (T.Grant { to_ = 2 }) ]

let disjoint_quorums =
  [ e 1.0 0 (T.Adopt_quorum [ 0; 1 ]); e 2.0 1 (T.Adopt_quorum [ 2; 3 ]) ]

let fifo_reordered =
  [
    e 1.0 0 (T.Send { dst = 1; msg = "a" });
    e 2.0 0 (T.Send { dst = 1; msg = "b" });
    e 3.0 1 (T.Receive { src = 0; msg = "b" });
    e 4.0 1 (T.Receive { src = 0; msg = "a" });
  ]

let fairness_cfg = { (O.default ~n:4) with O.max_overtake = Some 1 }

let overtake_twice =
  [
    e 0.0 0 T.Request;
    e 1.0 1 T.Request;
    e 2.0 1 T.Enter_cs;
    e 3.0 1 T.Exit_cs;
    e 4.0 1 T.Request;
    e 5.0 1 T.Enter_cs;
    e 6.0 1 T.Exit_cs;
  ]

let bound_cfg = { (O.default ~n:4) with O.bound_per_cs = Some 1.0 }

let over_bound =
  [
    e 0.0 0 (T.Send { dst = 1; msg = "a" });
    e 0.5 0 (T.Send { dst = 2; msg = "b" });
    e 1.0 0 T.Enter_cs;
    e 2.0 0 T.Exit_cs;
  ]

let injected =
  let d = O.default ~n:4 in
  [
    ("mutex", d, mutex_overlap);
    ("quorum", d, quorum_missing);
    ("custody: duplicated", d, custody_duplicated);
    ("custody: forward unheld", d, forward_unheld);
    ("custody: grant while held", d, grant_while_held);
    ("coterie", d, disjoint_quorums);
    ("fifo", d, fifo_reordered);
    ("fairness", fairness_cfg, overtake_twice);
    ("bound", bound_cfg, over_bound);
  ]

let test_empty_trace () = check_clean "empty" (verdict [])

let test_mutex_violation () =
  let v = verdict mutex_overlap in
  Alcotest.(check bool) "flagged" true (has_violation "MUTEX" v);
  Alcotest.(check int) "exactly one" 1 (List.length v.O.violations)

let test_mutex_sequential_ok () =
  check_clean "sequential tenures"
    (verdict
       [
         e 1.0 0 T.Enter_cs;
         e 2.0 0 T.Exit_cs;
         e 2.0 1 T.Enter_cs;
         e 3.0 1 T.Exit_cs;
       ])

let test_crash_ends_tenure () =
  (* fail-stop inside the CS: the next entry is not a double-entry *)
  check_clean "crash frees the CS"
    (verdict
       [ e 1.0 0 T.Enter_cs; e 2.0 0 T.Crash; e 3.0 1 T.Enter_cs; e 4.0 1 T.Exit_cs ])

let test_quorum_coverage () =
  let missing = verdict quorum_missing in
  Alcotest.(check bool) "entry without full quorum flagged" true
    (has_violation "QUORUM" missing);
  check_clean "entry with full quorum"
    (verdict
       [
         e 0.0 2 (T.Adopt_quorum [ 0; 1 ]);
         e 1.0 2 (T.Acquire { arbiter = 0 });
         e 1.5 2 (T.Acquire { arbiter = 1 });
         e 2.0 2 T.Enter_cs;
         e 3.0 2 T.Exit_cs;
       ])

let test_custody_no_duplication () =
  let v = verdict custody_duplicated in
  Alcotest.(check bool) "second acquisition flagged" true
    (has_violation "CUSTODY" v);
  check_clean "cede before re-acquire"
    (verdict
       [
         e 1.0 1 (T.Acquire { arbiter = 0 });
         e 2.0 1 (T.Cede { arbiter = 0 });
         e 3.0 2 (T.Acquire { arbiter = 0 });
       ])

let test_custody_transfer_chain () =
  (* the delay-optimal direct transfer: holder forwards, successor acquires *)
  check_clean "forward chain conserves the permission"
    (verdict
       [
         e 1.0 1 (T.Acquire { arbiter = 0 });
         e 2.0 1 (T.Forward { arbiter = 0; to_ = 2 });
         e 3.0 2 (T.Acquire { arbiter = 0 });
       ]);
  let v = verdict forward_unheld in
  Alcotest.(check bool) "forwarding without possession flagged" true
    (has_violation "CUSTODY" v)

let test_custody_grant_while_held () =
  let v = verdict grant_while_held in
  Alcotest.(check bool) "double grant flagged" true (has_violation "CUSTODY" v);
  check_clean "grant after cede"
    (verdict
       [
         e 1.0 1 (T.Acquire { arbiter = 0 });
         e 2.0 1 (T.Cede { arbiter = 0 });
         e 3.0 0 (T.Grant { to_ = 2 });
       ])

let test_crash_voids_custody () =
  check_clean "permission of a dead holder is reclaimable"
    (verdict
       [
         e 1.0 1 (T.Acquire { arbiter = 0 });
         e 2.0 1 T.Crash;
         e 3.0 0 (T.Grant { to_ = 2 });
         e 4.0 2 (T.Acquire { arbiter = 0 });
       ])

let test_coterie_intersection () =
  let v = verdict disjoint_quorums in
  Alcotest.(check bool) "disjoint quorums flagged" true
    (has_violation "COTERIE" v);
  check_clean "intersecting quorums"
    (verdict
       [ e 1.0 0 (T.Adopt_quorum [ 0; 1 ]); e 2.0 1 (T.Adopt_quorum [ 1; 3 ]) ])

let test_fifo_order () =
  let v = verdict fifo_reordered in
  Alcotest.(check bool) "reordered channel flagged" true (has_violation "FIFO" v);
  check_clean "in-order channel"
    (verdict
       [
         e 1.0 0 (T.Send { dst = 1; msg = "a" });
         e 2.0 0 (T.Send { dst = 1; msg = "b" });
         e 3.0 1 (T.Receive { src = 0; msg = "a" });
         e 4.0 1 (T.Receive { src = 0; msg = "b" });
       ])

let test_fifo_tolerates_faults () =
  (* loss leaves a gap; duplication repeats the last delivery: both legal *)
  check_clean "gap from a lost message"
    (verdict
       [
         e 1.0 0 (T.Send { dst = 1; msg = "a" });
         e 2.0 0 (T.Send { dst = 1; msg = "b" });
         e 3.0 1 (T.Receive { src = 0; msg = "b" });
       ]);
  check_clean "stutter from a duplicated message"
    (verdict
       [
         e 1.0 0 (T.Send { dst = 1; msg = "a" });
         e 2.0 1 (T.Receive { src = 0; msg = "a" });
         e 3.0 1 (T.Receive { src = 0; msg = "a" });
       ])

let test_fairness_bound () =
  let cfg = fairness_cfg in
  let v = O.check cfg overtake_twice ~truncated:false in
  Alcotest.(check bool) "second overtake exceeds bound 1" true
    (has_violation "FAIRNESS" v);
  (* one overtake is within the bound *)
  let v1 =
    O.check cfg
      [
        e 0.0 0 T.Request;
        e 1.0 1 T.Request;
        e 2.0 1 T.Enter_cs;
        e 3.0 1 T.Exit_cs;
        e 4.0 0 T.Enter_cs;
        e 5.0 0 T.Exit_cs;
      ]
      ~truncated:false
  in
  check_clean "single overtake within bound" v1

let test_message_bound () =
  let v = O.check bound_cfg over_bound ~truncated:false in
  Alcotest.(check bool) "2 messages for 1 CS exceeds bound 1" true
    (has_violation "BOUND" v)

let test_truncated_never_ok () =
  (* a clipped trace proves nothing: no violations, but not a pass either *)
  let v = O.check (O.default ~n:4) [ e 1.0 0 T.Enter_cs ] ~truncated:true in
  Alcotest.(check int) "nothing flagged" 0 (List.length v.O.violations);
  Alcotest.(check bool) "truncated recorded" true v.O.truncated;
  Alcotest.(check bool) "not ok" false (O.ok v)

(* ---- every protocol x quorum construction through the oracle ---- *)

let run_and_check ~algo ~kind ~n () =
  let runner =
    match R.of_algo ?kind algo ~n with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let cfg =
    {
      (E.default ~n) with
      seed = 11;
      max_executions = 40;
      warmup = 0;
      cs_duration = 1.0;
      delay = Dmx_sim.Network.Uniform { lo = 0.5; hi = 1.5 };
      workload = W.Saturated { contenders = n };
      max_time = 1.0e9;
    }
  in
  let sink = T.create ~enabled:true ~capacity:2_000_000 () in
  let r = runner.R.run_traced ~trace_sink:sink cfg in
  Alcotest.(check int) "engine violations" 0 r.E.violations;
  Alcotest.(check bool) "deadlocked" false r.E.deadlocked;
  let k =
    match kind with
    | Some kind -> (B.size_stats (B.req_sets kind ~n)).B.k_max
    | None -> n
  in
  let ocfg =
    {
      (O.default ~n) with
      O.max_overtake = O.fairness_bound ~algo ~n;
      bound_per_cs = O.expected_bound ~algo ~n ~k O.Heavy;
    }
  in
  let v = O.check_trace ocfg sink in
  check_clean (Printf.sprintf "%s/%s" algo runner.R.variant) v

let quorum_cases =
  (* the six constructions of the quorum chapter, each at a size it supports *)
  [
    (B.Grid, 9);
    (B.Fpp, 7);
    (B.Tree, 7);
    (B.Majority, 7);
    (B.Hqc, 9);
    (B.Star, 8);
  ]

let protocol_cases =
  List.concat_map
    (fun algo -> List.map (fun (k, n) -> (algo, Some k, n)) quorum_cases)
    [ "delay-optimal"; "ft-delay-optimal"; "maekawa" ]
  @ List.map
      (fun algo -> (algo, None, 9))
      [
        "lamport";
        "ricart-agrawala";
        "singhal-dynamic";
        "suzuki-kasami";
        "singhal-heuristic";
        "raymond";
      ]

let sweep_tests =
  List.map
    (fun (algo, kind, n) ->
      let label =
        match kind with
        | Some k -> Printf.sprintf "%s %s n=%d" algo (B.kind_name k) n
        | None -> Printf.sprintf "%s n=%d" algo n
      in
      Alcotest.test_case label `Quick (run_and_check ~algo ~kind ~n))
    protocol_cases

(* ---- the independent occupancy scan ---- *)

let occupancy entries = Dmx_sim.Occupancy.violations ~n:4 entries

let test_occupancy_overlap () =
  Alcotest.(check int) "overlapping Enter_cs" 1
    (occupancy
       [ e 1.0 0 T.Enter_cs; e 2.0 1 T.Enter_cs; e 3.0 0 T.Exit_cs; e 4.0 1 T.Exit_cs ])

let test_occupancy_crash_closes () =
  Alcotest.(check int) "crash inside the CS closes the hold" 0
    (occupancy
       [ e 1.0 0 T.Enter_cs; e 2.0 0 T.Crash; e 3.0 1 T.Enter_cs; e 4.0 1 T.Exit_cs ])

let test_occupancy_stray_exit () =
  Alcotest.(check int) "Exit_cs without Enter_cs is ignored" 1
    (occupancy
       [
         e 1.0 0 T.Enter_cs;
         e 2.0 1 T.Exit_cs;
         e 3.0 2 T.Enter_cs;
         e 4.0 0 T.Exit_cs;
         e 5.0 2 T.Exit_cs;
       ])

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("empty trace", test_empty_trace);
      ("mutex violation", test_mutex_violation);
      ("mutex sequential ok", test_mutex_sequential_ok);
      ("crash ends tenure", test_crash_ends_tenure);
      ("quorum coverage at entry", test_quorum_coverage);
      ("custody: no duplication", test_custody_no_duplication);
      ("custody: transfer chain", test_custody_transfer_chain);
      ("custody: grant while held", test_custody_grant_while_held);
      ("custody: crash voids possession", test_crash_voids_custody);
      ("coterie intersection", test_coterie_intersection);
      ("fifo order", test_fifo_order);
      ("fifo tolerates loss and dup", test_fifo_tolerates_faults);
      ("fairness bound", test_fairness_bound);
      ("message bound", test_message_bound);
      ("truncated trace never passes", test_truncated_never_ok);
      ("occupancy: overlap counted", test_occupancy_overlap);
      ("occupancy: crash closes a hold", test_occupancy_crash_closes);
      ("occupancy: stray exit ignored", test_occupancy_stray_exit);
    ]
  @ sweep_tests
