(* The trace oracle: hand-crafted traces exercising each invariant (mutex,
   quorum coverage, coterie intersection, permission custody, FIFO,
   fairness, message bounds, truncation refusal), the streaming FIFO check
   against the whole-run matcher it replaced, the independent occupancy
   scan, then real runs of every protocol x quorum construction piped
   through it. *)

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

(* ---- streaming FIFO against the whole-run reference ---- *)

(* The FIFO check as it was before the oracle streamed: every send and
   receive of a channel is kept until the end of the run, then each
   receive, in order, scans forward over {e all} the channel's remaining
   sends, later ones included, for the next one with its text (or repeats
   the previous match). *)
let check_fifo ~push sends recvs =
  let sends = Array.of_list sends in
  let cursor = ref 0 in
  let last = ref None in
  List.iter
    (fun (rt, rsite, msg) ->
      let matched_dup =
        match !last with Some (_, m) when m = msg -> true | _ -> false
      in
      let rec scan i =
        if i >= Array.length sends then None
        else
          let st, smsg = sends.(i) in
          if smsg = msg then Some (i, st) else scan (i + 1)
      in
      match scan !cursor with
      | Some (i, st) ->
        cursor := i + 1;
        last := Some (st, msg);
        if st > rt +. 1e-9 then
          push
            {
              O.time = rt;
              site = rsite;
              what =
                Printf.sprintf "FIFO: %S received before it was sent (%.4f)"
                  msg st;
            }
      | None ->
        if not matched_dup then
          push
            {
              O.time = rt;
              site = rsite;
              what =
                Printf.sprintf
                  "FIFO: received %S out of channel order (no unconsumed \
                   matching send)"
                  msg;
            })
    recvs

(* The reference's FIFO violations of a whole entry list, on the oracle's
   channels: (src, dst) pairs of distinct in-range sites. *)
let reference_fifo ~n entries =
  let sends = Hashtbl.create 16 and recvs = Hashtbl.create 16 in
  let add tbl key x =
    Hashtbl.replace tbl key
      (x :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  let in_range s = s >= 0 && s < n in
  List.iter
    (fun (e : T.entry) ->
      match e.T.kind with
      | T.Send { dst; msg }
        when dst <> e.T.site && in_range e.T.site && in_range dst ->
        add sends ((e.T.site * n) + dst) (e.T.time, msg)
      | T.Receive { src; msg }
        when src <> e.T.site && in_range src && in_range e.T.site ->
        add recvs ((src * n) + e.T.site) (e.T.time, e.T.site, msg)
      | _ -> ())
    entries;
  let out = ref [] in
  Hashtbl.iter
    (fun key r ->
      let s = Option.value ~default:[] (Hashtbl.find_opt sends key) in
      check_fifo ~push:(fun v -> out := v :: !out) (List.rev s) (List.rev r))
    recvs;
  !out

let sorted vs =
  List.sort
    (fun (a : O.violation) (b : O.violation) ->
      compare (a.O.time, a.O.site, a.O.what) (b.O.time, b.O.site, b.O.what))
    vs

let streaming_fifo ~n entries =
  sorted (O.check (O.default ~n) entries ~truncated:false).O.violations

(* The one text only the reference produces: it can match a receive to a
   send recorded later, which a stream has not seen yet. *)
let before_sent (v : O.violation) =
  let needle = "received before it was sent" in
  let w = v.O.what and k = String.length needle in
  let rec at i =
    i + k <= String.length w && (String.sub w i k = needle || at (i + 1))
  in
  at 0

(* Random per-channel streams in which every receive follows its send:
   each send is lost, delivered once or delivered twice in a row (a
   stutter), some adjacent deliveries are swapped (an injected reorder),
   and each channel's sends and receives interleave at random, as do the
   channels. Texts are unique per channel, or drawn from three letters so
   that the greedy match meets repeats. *)
let gen_channels ~unique st =
  let n = 3 in
  let pairs =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun d -> if s <> d then Some (s, d) else None)
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  let pairs =
    List.map snd
      (List.sort compare (List.map (fun p -> (Random.State.bits st, p)) pairs))
  in
  let chans = List.filteri (fun i _ -> i < 1 + Random.State.int st 3) pairs in
  let script (src, dst) =
    let m = Random.State.int st 12 in
    let text =
      Array.init m (fun i ->
          if unique then Printf.sprintf "m%d" i
          else String.make 1 "abc".[Random.State.int st 3])
    in
    let deliveries =
      List.concat
        (List.init m (fun i ->
             match Random.State.int st 10 with
             | 0 | 1 -> []
             | 2 | 3 -> [ i; i ]
             | _ -> [ i ]))
    in
    let d = Array.of_list deliveries in
    for j = 0 to Array.length d - 2 do
      if Random.State.int st 8 = 0 then begin
        let x = d.(j) in
        d.(j) <- d.(j + 1);
        d.(j + 1) <- x
      end
    done;
    (* each step emits the next send or, once its send is out, the next
       delivery *)
    let rec go ns nd acc =
      let can_recv = nd < Array.length d && d.(nd) < ns in
      if ns = m && not can_recv then List.rev acc
      else if can_recv && (ns = m || Random.State.bool st) then
        go ns (nd + 1) (`Recv (dst, src, text.(d.(nd))) :: acc)
      else go (ns + 1) nd (`Send (src, dst, text.(ns)) :: acc)
    in
    go 0 0 []
  in
  let queues = Array.of_list (List.map script chans) in
  let rec merge t acc =
    let live =
      List.filter
        (fun i -> queues.(i) <> [])
        (List.init (Array.length queues) Fun.id)
    in
    match live with
    | [] -> List.rev acc
    | _ ->
      let i = List.nth live (Random.State.int st (List.length live)) in
      let step = List.hd queues.(i) in
      queues.(i) <- List.tl queues.(i);
      let kind, site =
        match step with
        | `Send (src, dst, msg) -> (T.Send { dst; msg }, src)
        | `Recv (dst, src, msg) -> (T.Receive { src; msg }, dst)
      in
      merge (t +. 1.0) (e t site kind :: acc)
  in
  (n, merge 1.0 [])

let print_stream (_, entries) =
  String.concat "\n"
    (List.map (fun x -> Format.asprintf "%a" T.pp_entry x) entries)

let qcheck_fifo_unique =
  QCheck.Test.make
    ~name:"streaming FIFO = reference (unique texts, loss, dup, reorder)"
    ~count:500
    (QCheck.make ~print:print_stream (gen_channels ~unique:true))
    (fun (n, entries) ->
      streaming_fifo ~n entries = sorted (reference_fifo ~n entries))

let qcheck_fifo_repeated =
  QCheck.Test.make
    ~name:"streaming FIFO = reference (repeated texts, loss, dup, reorder)"
    ~count:500
    (QCheck.make ~print:print_stream (gen_channels ~unique:false))
    (fun (n, entries) ->
      let str = streaming_fifo ~n entries in
      let ref_ = sorted (reference_fifo ~n entries) in
      if List.exists before_sent ref_ then
        (* the reference matched a receive to a later same-text send (see
           "fifo: where the stream and the reference part") *)
        not (List.exists before_sent str)
      else str = ref_)

(* The two ways the verdicts part, both on a receive that the reference
   pairs with a send recorded after it. *)
let test_fifo_parting_cases () =
  let fifo = List.map (fun (v : O.violation) -> v.O.what) in
  (* a receive recorded before its send: both reject, in different words *)
  let early =
    [
      e 1.0 1 (T.Receive { src = 0; msg = "a" });
      e 2.0 0 (T.Send { dst = 1; msg = "a" });
    ]
  in
  Alcotest.(check (list string))
    "receive before send: reference"
    [ "FIFO: \"a\" received before it was sent (2.0000)" ]
    (fifo (reference_fifo ~n:4 early));
  Alcotest.(check (list string))
    "receive before send: stream"
    [ "FIFO: received \"a\" out of channel order (no unconsumed matching send)" ]
    (fifo (streaming_fifo ~n:4 early));
  (* a stutter whose text is sent again later: the stream takes it for the
     duplicate it is; the reference pairs it with the later send *)
  let stutter =
    [
      e 1.0 0 (T.Send { dst = 1; msg = "a" });
      e 2.0 1 (T.Receive { src = 0; msg = "a" });
      e 3.0 1 (T.Receive { src = 0; msg = "a" });
      e 4.0 0 (T.Send { dst = 1; msg = "a" });
      e 5.0 1 (T.Receive { src = 0; msg = "a" });
    ]
  in
  Alcotest.(check (list string))
    "stutter before a resend: reference"
    [ "FIFO: \"a\" received before it was sent (4.0000)" ]
    (fifo (reference_fifo ~n:4 stutter));
  Alcotest.(check (list string))
    "stutter before a resend: stream" [] (fifo (streaming_fifo ~n:4 stutter))

(* The fuzz corpus through the oracle and through the reference: the
   reference verdict is the oracle's with FIFO off plus the whole-run FIFO
   matcher's violations. *)
let test_fifo_fuzz_corpus () =
  let verdicts =
    Dmx_sim.Pool.run ~jobs:Test_fuzz.fuzz_jobs Test_fuzz.cases (fun i ->
        let s = Test_fuzz.gen (i + 1) in
        match R.run_schedule s with
        | Error msg -> Error msg
        | Ok (_, tr) ->
          let cfg = Test_fuzz.oracle_cfg s in
          let v = O.check_trace cfg tr in
          let rest = O.check_trace { cfg with O.fifo = false } tr in
          let fifo =
            if cfg.O.fifo then reference_fifo ~n:cfg.O.n (T.entries tr) else []
          in
          Ok
            ( (O.ok v, List.length v.O.violations),
              ( rest.O.violations = [] && fifo = [] && not rest.O.truncated,
                List.length rest.O.violations + List.length fifo ),
              cfg.O.fifo ))
  in
  let fifo_checked = ref 0 in
  Array.iteri
    (fun i -> function
      | Error msg -> Alcotest.fail msg
      | Ok (stream, reference, fifo) ->
        if fifo then incr fifo_checked;
        Alcotest.(check (pair bool int))
          (Printf.sprintf "seed %d: ok and violation count" (i + 1))
          reference stream)
    verdicts;
  Alcotest.(check bool) "some runs check FIFO" true (!fifo_checked > 0)

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
      ("fifo: where the stream and the reference part", test_fifo_parting_cases);
      ("fairness bound", test_fairness_bound);
      ("message bound", test_message_bound);
      ("truncated trace never passes", test_truncated_never_ok);
      ("occupancy: overlap counted", test_occupancy_overlap);
      ("occupancy: crash closes a hold", test_occupancy_crash_closes);
      ("occupancy: stray exit ignored", test_occupancy_stray_exit);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_fifo_unique;
      QCheck_alcotest.to_alcotest qcheck_fifo_repeated;
      Alcotest.test_case "fifo: fuzz corpus, stream = reference" `Slow
        test_fifo_fuzz_corpus;
    ]
  @ sweep_tests
