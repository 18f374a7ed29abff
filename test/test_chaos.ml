(* Unit tests for the deterministic chaos shim: pure per-frame fault
   decisions (the same-seed determinism guarantee), plan validation and
   serialization, and the shim's behaviour over a recording fake
   transport — loss/duplication accounting, partition windows, reorder
   holdback, supervisor-link exemption. *)

module Chaos = Dmx_net.Chaos
module Sig = Dmx_net.Transport_sig
module Wire = Dmx_net.Wire

let base_plan =
  { Chaos.no_faults with Chaos.seed = 42; n = 5; loss = 0.2; duplication = 0.1 }

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
  let seq plan =
    List.init 500 (fun k ->
        let d = Chaos.decision plan ~src:0 ~dst:1 k in
        (d.Chaos.lose, d.Chaos.duplicate, d.Chaos.reorder))
  in
  Alcotest.(check bool) "same seed, same decisions" true
    (seq base_plan = seq { base_plan with Chaos.loss = base_plan.Chaos.loss });
  Alcotest.(check bool) "different seed, different decisions" true
    (seq base_plan <> seq { base_plan with Chaos.seed = 43 });
  Alcotest.(check bool) "different link, different decisions" true
    (List.init 500 (fun k -> (Chaos.decision base_plan ~src:0 ~dst:1 k).Chaos.lose)
    <> List.init 500 (fun k ->
           (Chaos.decision base_plan ~src:0 ~dst:2 k).Chaos.lose))

let test_decision_rates () =
  let n = 20_000 in
  let losses = ref 0 and dups = ref 0 in
  for k = 0 to n - 1 do
    let d = Chaos.decision base_plan ~src:1 ~dst:3 k in
    if d.Chaos.lose then incr losses;
    if d.Chaos.duplicate then incr dups
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

let test_plan_string_roundtrip () =
  let plan =
    {
      Chaos.seed = 7;
      n = 5;
      loss = 0.125;
      duplication = 0.0625;
      reorder = 0.3;
      reorder_hold = 4;
      delay_spikes = [ (0.5, 1.5, 0.25); (2.0, 3.0, 0.1) ];
      partitions =
        [
          { Chaos.from_t = 1.0; until = 2.0; groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
        ];
    }
  in
  let plan' = Chaos.plan_of_string (Chaos.plan_to_string plan) in
  Alcotest.(check bool) "round-trips" true (plan = plan');
  Alcotest.(check bool) "trivial round-trips" true
    (Chaos.plan_of_string (Chaos.plan_to_string Chaos.no_faults)
    = Chaos.no_faults)

let test_validation () =
  let bad p = match Chaos.validate p with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "loss >= 1 rejected" true
    (bad { base_plan with Chaos.loss = 1.0 });
  Alcotest.(check bool) "negative dup rejected" true
    (bad { base_plan with Chaos.duplication = -0.1 });
  Alcotest.(check bool) "empty spike window rejected" true
    (bad { base_plan with Chaos.delay_spikes = [ (2.0, 1.0, 0.1) ] });
  Alcotest.(check bool) "out-of-range partition site rejected" true
    (bad
       {
         base_plan with
         Chaos.partitions =
           [ { Chaos.from_t = 0.0; until = 1.0; groups = [ [ 0; 9 ] ] } ];
       });
  Alcotest.(check bool) "site in two groups rejected" true
    (bad
       {
         base_plan with
         Chaos.partitions =
           [ { Chaos.from_t = 0.0; until = 1.0; groups = [ [ 0 ]; [ 0; 1 ] ] } ];
       });
  Alcotest.(check bool) "good plan accepted" true (not (bad base_plan))

let test_loss_accounting () =
  let sent, inner = recording () in
  let c = Chaos.create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner in
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
  let c2 = Chaos.create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner:inner2 in
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
  let c = Chaos.create base_plan ~self:0 ~peers:[ 1; 5 ] ~inner in
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
      Chaos.no_faults with
      Chaos.seed = 1;
      n = 5;
      partitions =
        [
          { Chaos.from_t = 0.0; until = 3600.0; groups = [ [ 0; 1 ]; [ 2; 3; 4 ] ] };
        ];
    }
  in
  let sent, inner = recording () in
  let c = Chaos.create plan ~self:0 ~peers:[ 1; 2; 5 ] ~inner in
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
  let reorder_only = { Chaos.no_faults with Chaos.n = 5; reorder = 0.3 } in
  let seed =
    let rec find s =
      if s > 100_000 then Alcotest.fail "no such seed"
      else
        let p = { reorder_only with Chaos.seed = s } in
        let d k = Chaos.decision p ~src:0 ~dst:1 k in
        if
          (d 0).Chaos.reorder
          && not (List.exists (fun k -> (d k).Chaos.reorder) [ 1; 2; 3; 4; 5 ])
        then s
        else find (s + 1)
    in
    find 1
  in
  let plan = { reorder_only with Chaos.seed = seed } in
  let sent, inner = recording () in
  let c = Chaos.create plan ~self:0 ~peers:[ 1 ] ~inner in
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
    Alcotest.test_case "fault decision rates match probabilities" `Quick
      test_decision_rates;
    Alcotest.test_case "plan string round-trips" `Quick
      test_plan_string_roundtrip;
    Alcotest.test_case "malformed plans rejected" `Quick test_validation;
    Alcotest.test_case "loss/duplication accounting + re-run determinism"
      `Quick test_loss_accounting;
    Alcotest.test_case "supervisor links exempt" `Quick test_supervisor_exempt;
    Alcotest.test_case "partition window drops cross-group frames" `Quick
      test_partition_window;
    Alcotest.test_case "reorder holds a frame back" `Quick
      test_reorder_holdback;
  ]
