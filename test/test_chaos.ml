(* Unit tests for the deterministic chaos shim and the fault plan it
   shares with the simulator: pure per-frame fault decisions (the
   same-seed determinism guarantee), plan validation at every entry
   point, the plan's one text form, and the shim's behaviour over a
   recording fake transport — loss/duplication accounting, partition
   windows, reorder holdback, supervisor-link exemption. *)

module Chaos = Dmx_net.Chaos
module Net = Dmx_sim.Network
module Sig = Dmx_net.Transport_sig
module Wire = Dmx_net.Wire

let base_plan = { Net.no_faults with Net.loss = 0.2; duplication = 0.1 }
let create ?(seed = 42) plan = Chaos.create plan ~seed ~n:5

(* a transport that records every send, delivers nothing *)
let recording () =
  let sent = ref [] in
  ( sent,
    {
      Sig.send = (fun ~dst frame -> sent := (dst, frame) :: !sent);
      broadcast = (fun _ -> ());
      poll = (fun () -> None);
      stats = (fun () -> Sig.no_stats);
      close = (fun () -> ());
    } )

let frame i = Wire.Sproto { shard = 0; src = 0; dst = 1; payload = string_of_int i }

let test_decision_deterministic () =
  let seq ~seed ~dst =
    List.init 500 (fun k -> Chaos.decision base_plan ~seed ~src:0 ~dst k)
  in
  Alcotest.(check bool) "same seed, same decisions" true
    (seq ~seed:42 ~dst:1 = seq ~seed:42 ~dst:1);
  Alcotest.(check bool) "different seed, different decisions" true
    (seq ~seed:42 ~dst:1 <> seq ~seed:43 ~dst:1);
  Alcotest.(check bool) "different link, different decisions" true
    (seq ~seed:42 ~dst:1 <> seq ~seed:42 ~dst:2)

(* Pin of the live decision function: the fate of the first 256 frames on
   links (0,1) and (2,0) under one seed and plan, one character per frame:
   'x' lost, otherwise '0' + (1 if duplicated) + (2 if held back). *)
let pinned_fates ~src ~dst =
  let plan = { base_plan with Net.reorder = 0.15 } in
  String.init 256 (fun k ->
      let d = Chaos.decision plan ~seed:42 ~src ~dst k in
      if d.Net.lose then 'x'
      else
        Char.chr
          (Char.code '0'
          + (if d.Net.duplicate then 1 else 0)
          + if d.Net.reorder then 2 else 0))

let test_decision_pin () =
  Alcotest.(check string) "link (0,1)"
    "xx0002200x2000310000000000020000000000020000100200x020000x002000\
     0001x0000x00000210200x0x0000x0x00303000000000x00x02x0200110000x0\
     0x2x00000020x00x0x0011000x00x00x00000x20x300110110120001000x00x0\
     000001200002x2xxx00xxx0xxx0x00000xx000xx20x30xx0xx2x001x00x000x0"
    (pinned_fates ~src:0 ~dst:1);
  Alcotest.(check string) "link (2,0)"
    "x2000000002000x20xx00x00000x0x00xx1000200200x000x00100x020x00xx0\
     0x0000001000000x2032xx100200x00000x20000011000300x012xx2000000x0\
     00x22000000001x00000020x0000200000x30000300020002x10120200201010\
     00x00200020x0000x0003000200xx00020x00x000000xx00xx0002x2x0x00001"
    (pinned_fates ~src:2 ~dst:0)

let test_decision_rates () =
  let n = 20_000 in
  let losses = ref 0 and dups = ref 0 in
  for k = 0 to n - 1 do
    let d = Chaos.decision base_plan ~seed:42 ~src:1 ~dst:3 k in
    if d.Net.lose then incr losses;
    if d.Net.duplicate then incr dups
  done;
  let rate c = float_of_int !c /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate %.3f near 0.2" (rate losses))
    true
    (abs_float (rate losses -. 0.2) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "dup rate %.3f near 0.1" (rate dups))
    true
    (abs_float (rate dups -. 0.1) < 0.02)

(* A daemon spec whose chaos field is [plan]: the trampoline that carries
   the plan to a live node. *)
let spec plan =
  {
    Dmx_service.Snode.site = 0;
    n = 5;
    node_ports = [| 9000; 9001; 9002; 9003; 9004 |];
    supervisor_port = 9005;
    protocol = "ft-delay-optimal";
    quorum = "tree";
    shards = 1;
    lease = 2.0;
    max_batch = 8;
    seed = 42;
    epoch = 0.0;
    detector = { Dmx_sim.Detector.period = 0.1; timeout = 1.0 };
    rto = 0.25;
    max_seconds = 60.0;
    transport = "tcp";
    chaos = plan;
    metrics_port = 0;
  }

let trampoline plan =
  Result.map
    (fun s -> s.Dmx_service.Snode.chaos)
    (Dmx_service.Snode.spec_of_string
       (Dmx_service.Snode.spec_to_string (spec plan)))

(* Random valid plans over 5 sites: any probabilities and hold, up to
   three partitions (some never healing) over disjoint groups, up to
   three spikes. The codec writes %h, so equality must be exact. *)
let gen_plan =
  let open QCheck.Gen in
  let n = 5 in
  let prob = oneof [ return 0.0; float_bound_exclusive 1.0 ] in
  let partition =
    let* from_t = float_bound_exclusive 100.0 in
    let* until =
      oneof
        [
          return infinity;
          map (fun d -> from_t +. 0.5 +. d) (float_bound_inclusive 50.0);
        ]
    in
    let* ngroups = 1 -- 3 in
    let* owner = list_repeat n (0 -- ngroups) in
    let groups =
      List.init ngroups (fun g ->
          List.filter (fun s -> List.nth owner s = g + 1) (List.init n Fun.id))
      |> List.filter (( <> ) [])
    in
    return
      { Net.from_t; until; groups = (if groups = [] then [ [ 0 ] ] else groups) }
  in
  let spike =
    let* from_t = float_bound_exclusive 100.0 in
    let* span = float_bound_inclusive 50.0 in
    let* extra = float_bound_inclusive 5.0 in
    return (from_t, from_t +. 0.5 +. span, 0.001 +. extra)
  in
  let* loss = prob in
  let* duplication = prob in
  let* reorder = prob in
  let* reorder_hold = 1 -- 10 in
  let* partitions = list_size (0 -- 3) partition in
  let* delay_spikes = list_size (0 -- 3) spike in
  return { Net.loss; duplication; reorder; reorder_hold; partitions; delay_spikes }

let qcheck_plan_roundtrip =
  QCheck.Test.make ~name:"plan string round-trips" ~count:300
    (QCheck.make
       ~print:(fun p -> String.concat "\n" (Net.fault_lines p))
       gen_plan)
    (fun plan ->
      Net.faults_of_lines ~n:5 (Net.fault_lines plan) = Ok plan
      && trampoline plan = Ok plan)

(* Every entry point to the fault model goes through the one validator:
   the simulator, the shim, the swarm driver, and the text form (the
   .dmxrepro parser and the daemon trampoline). *)
let entry_points =
  [
    ("Network.create", fun p ->
        match Net.create ~faults:p ~n:5 ~delay:(Net.Constant 1.0)
                ~rng:(Dmx_sim.Rng.create 1) () with
        | _ -> true
        | exception Invalid_argument _ -> false);
    ("Chaos.create", fun p ->
        let _, inner = recording () in
        match create p ~self:0 ~peers:[ 1 ] ~inner with
        | _ -> true
        | exception Invalid_argument _ -> false);
    ("Swarm.validate", fun p ->
        Result.is_ok
          (Dmx_service.Swarm.validate
             { (Dmx_service.Swarm.default ~n:5) with Dmx_service.Swarm.chaos = p }));
    ("Network.faults_of_lines", fun p ->
        Result.is_ok (Net.faults_of_lines ~n:5 (Net.fault_lines p)));
    ("Schedule.of_string", fun p ->
        Result.is_ok
          (Dmx_sim.Schedule.of_string
             (String.concat "\n" ("dmxrepro v1" :: "n 5" :: Net.fault_lines p))));
    ("Snode.spec_of_string", fun p -> Result.is_ok (trampoline p));
  ]

let test_nonfinite_plans () =
  let part from_t until = { Net.from_t; until; groups = [ [ 0 ]; [ 1; 2 ] ] } in
  let ps partitions = { Net.no_faults with Net.partitions } in
  let ss delay_spikes = { Net.no_faults with Net.delay_spikes } in
  let bad =
    [
      ("NaN loss", { Net.no_faults with Net.loss = Float.nan });
      ("NaN duplication", { Net.no_faults with Net.duplication = Float.nan });
      ("NaN reorder", { Net.no_faults with Net.reorder = Float.nan });
      ("NaN partition start", ps [ part Float.nan 1.0 ]);
      ("NaN partition end", ps [ part 0.0 Float.nan ]);
      ("infinite partition start", ps [ part infinity infinity ]);
      ("NaN spike", ss [ (Float.nan, Float.nan, Float.nan) ]);
      ("NaN spike end", ss [ (0.0, Float.nan, 1.0) ]);
      ("infinite spike end", ss [ (0.0, infinity, 1.0) ]);
      ("NaN spike extra", ss [ (0.0, 1.0, Float.nan) ]);
      ("infinite spike extra", ss [ (0.0, 1.0, infinity) ]);
      ("zero spike extra", ss [ (0.0, 1.0, 0.0) ]);
      ("negative spike extra", ss [ (0.0, 1.0, -1.0) ]);
    ]
  in
  List.iter
    (fun (what, accepts) ->
      List.iter
        (fun (label, plan) ->
          Alcotest.(check bool) (Printf.sprintf "%s rejects %s" what label)
            false (accepts plan))
        bad;
      Alcotest.(check bool) (what ^ " accepts a partition that never heals")
        true
        (accepts (ps [ part 1.0 infinity ])))
    entry_points

let test_validation () =
  let bad p =
    let _, inner = recording () in
    match create p ~self:0 ~peers:[ 1 ] ~inner with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "loss >= 1 rejected" true
    (bad { base_plan with Net.loss = 1.0 });
  Alcotest.(check bool) "negative dup rejected" true
    (bad { base_plan with Net.duplication = -0.1 });
  Alcotest.(check bool) "empty spike window rejected" true
    (bad { base_plan with Net.delay_spikes = [ (2.0, 1.0, 0.1) ] });
  Alcotest.(check bool) "out-of-range partition site rejected" true
    (bad
       {
         base_plan with
         Net.partitions =
           [ { Net.from_t = 0.0; until = 1.0; groups = [ [ 0; 9 ] ] } ];
       });
  Alcotest.(check bool) "site in two groups rejected" true
    (bad
       {
         base_plan with
         Net.partitions =
           [ { Net.from_t = 0.0; until = 1.0; groups = [ [ 0 ]; [ 0; 1 ] ] } ];
       });
  Alcotest.(check bool) "good plan accepted" true (not (bad base_plan))

let test_loss_accounting () =
  let sent, inner = recording () in
  let c = create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner in
  let h = Chaos.handle c in
  let n = 1000 in
  for i = 0 to n - 1 do
    h.Sig.send ~dst:1 (frame i)
  done;
  let lost =
    match List.assoc_opt "chaos.lost" (Chaos.stats_alist c) with
    | Some v -> v
    | None -> 0
  in
  let dup =
    match List.assoc_opt "chaos.duplicated" (Chaos.stats_alist c) with
    | Some v -> v
    | None -> 0
  in
  Alcotest.(check bool) "some frames lost" true (lost > 0);
  Alcotest.(check bool) "some frames duplicated" true (dup > 0);
  (* every offered frame is accounted for: delivered = offered - lost + dup
     (no reorder/spikes in this plan, so nothing is still held back) *)
  Alcotest.(check int) "conservation" (n - lost + dup) (List.length !sent);
  (* determinism end to end: a second shim over the same plan loses the
     same count *)
  let sent2, inner2 = recording () in
  let c2 = create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner:inner2 in
  let h2 = Chaos.handle c2 in
  for i = 0 to n - 1 do
    h2.Sig.send ~dst:1 (frame i)
  done;
  Alcotest.(check int) "identical fault decisions on re-run"
    (List.length !sent) (List.length !sent2);
  Alcotest.(check bool) "identical surviving frame sequence" true
    (!sent = !sent2)

let test_supervisor_exempt () =
  let sent, inner = recording () in
  let c = create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner in
  let h = Chaos.handle c in
  for i = 0 to 199 do
    h.Sig.send ~dst:5 (frame i) (* dst = n: the supervisor link *)
  done;
  Alcotest.(check int) "no supervisor frame lost" 200 (List.length !sent);
  Alcotest.(check (list (pair string int))) "no chaos counted" []
    (Chaos.stats_alist c)

let test_partition_window () =
  let plan =
    {
      Net.no_faults with
      Net.partitions =
        [ { Net.from_t = 0.0; until = 3600.0; groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ] } ];
    }
  in
  let sent, inner = recording () in
  let c = create ~seed:1 plan ~self:0 ~peers:[ 1; 2; 5 ] ~inner in
  let h = Chaos.handle c in
  (* before set_zero the window is inactive: everything passes *)
  h.Sig.send ~dst:2 (frame 0);
  Alcotest.(check int) "window inactive before epoch" 1 (List.length !sent);
  Chaos.set_zero c (Unix.gettimeofday ());
  h.Sig.send ~dst:1 (frame 1);
  h.Sig.send ~dst:2 (frame 2);
  h.Sig.send ~dst:5 (frame 3);
  (* same group (1) and supervisor (5) pass; cross-group (2) is dropped *)
  Alcotest.(check int) "cross-group dropped" 3 (List.length !sent);
  Alcotest.(check (option int)) "partition drop counted" (Some 1)
    (List.assoc_opt "chaos.partition_dropped" (Chaos.stats_alist c))

let test_reorder_holdback () =
  (* find a seed whose first frame on (0,1) is reordered and the next few
     are not — pure search over the decision function *)
  let plan = { Net.no_faults with Net.reorder = 0.3 } in
  let seed =
    let rec find seed =
      if seed > 100_000 then Alcotest.fail "no such seed"
      else
        let d k = Chaos.decision plan ~seed ~src:0 ~dst:1 k in
        if
          (d 0).Net.reorder
          && not (List.exists (fun k -> (d k).Net.reorder) [ 1; 2; 3; 4; 5 ])
        then seed
        else find (seed + 1)
    in
    find 1
  in
  let sent, inner = recording () in
  let c = create ~seed plan ~self:0 ~peers:[ 1 ] ~inner in
  let h = Chaos.handle c in
  for i = 0 to 5 do
    h.Sig.send ~dst:1 (frame i)
  done;
  (* frame 0 was held back past reorder_hold (3) subsequent frames *)
  let order =
    List.rev_map
      (function
        | _, Wire.Sproto { payload; _ } -> int_of_string payload
        | _ -> -1)
      !sent
  in
  Alcotest.(check int) "all frames delivered" 6 (List.length order);
  Alcotest.(check bool)
    (Printf.sprintf "frame 0 delivered late (order %s)"
       (String.concat "," (List.map string_of_int order)))
    true
    (match order with 0 :: _ -> false | _ -> List.mem 0 order)

let suite =
  [
    Alcotest.test_case "fault decisions are seed-deterministic" `Quick
      test_decision_deterministic;
    Alcotest.test_case "pinned fates on two links" `Quick test_decision_pin;
    Alcotest.test_case "fault decision rates match probabilities" `Quick
      test_decision_rates;
    QCheck_alcotest.to_alcotest qcheck_plan_roundtrip;
    Alcotest.test_case "malformed plans rejected" `Quick test_validation;
    Alcotest.test_case "non-finite plans rejected at every entry point"
      `Quick test_nonfinite_plans;
    Alcotest.test_case "loss/duplication accounting + re-run determinism"
      `Quick test_loss_accounting;
    Alcotest.test_case "supervisor links exempt" `Quick test_supervisor_exempt;
    Alcotest.test_case "partition window drops cross-group frames" `Quick
      test_partition_window;
    Alcotest.test_case "reorder holds a frame back" `Quick
      test_reorder_holdback;
  ]
