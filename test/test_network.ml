(* Network model: FIFO channels, delay distributions, crash semantics. *)

module Net = Dmx_sim.Network
module Rng = Dmx_sim.Rng

let make ?(n = 4) delay = Net.create ~n ~delay ~rng:(Rng.create 1) ()

(* One transmit as the delivery times of its surviving copies, or why it
   was lost. *)
let send net ~src ~dst ~now =
  match Net.transmit net ~src ~dst ~now with
  | Net.Delivered -> Ok [ Net.arrival net 0 ]
  | Net.Duplicated -> Ok [ Net.arrival net 0; Net.arrival net 1 ]
  | Net.Lost reason -> Error reason

let test_constant_delay () =
  let net = make (Net.Constant 2.0) in
  match Net.delivery_time net ~src:0 ~dst:1 ~now:10.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "10 + 2" 12.0 t
  | None -> Alcotest.fail "expected delivery"

let test_mean_delay () =
  Alcotest.(check (float 1e-9)) "constant" 3.0 (Net.mean_delay (Net.Constant 3.0));
  Alcotest.(check (float 1e-9)) "uniform" 2.0
    (Net.mean_delay (Net.Uniform { lo = 1.0; hi = 3.0 }));
  Alcotest.(check (float 1e-9)) "exp" 1.5
    (Net.mean_delay (Net.Exponential { mean = 1.5 }));
  Alcotest.(check (float 1e-9)) "shifted" 2.5
    (Net.mean_delay (Net.Shifted_exponential { base = 1.0; extra_mean = 1.5 }))

let test_fifo_per_channel () =
  let net = make (Net.Exponential { mean = 1.0 }) in
  let last = ref 0.0 in
  for i = 0 to 999 do
    match Net.delivery_time net ~src:0 ~dst:1 ~now:(float_of_int i *. 0.01) with
    | Some t ->
      Alcotest.(check bool) "non-decreasing" true (t >= !last);
      last := t
    | None -> Alcotest.fail "up sites must deliver"
  done

let test_channels_independent () =
  (* FIFO watermark of channel (0,1) must not constrain (1,0) or (0,2). *)
  let net = make (Net.Constant 5.0) in
  ignore (Net.delivery_time net ~src:0 ~dst:1 ~now:100.0);
  (match Net.delivery_time net ~src:0 ~dst:2 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "fresh channel" 5.0 t
  | None -> Alcotest.fail "delivery expected");
  match Net.delivery_time net ~src:1 ~dst:0 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "reverse direction fresh" 5.0 t
  | None -> Alcotest.fail "delivery expected"

let test_crash_drops () =
  let net = make (Net.Constant 1.0) in
  Net.crash net 2;
  Alcotest.(check bool) "to dead" true
    (Net.delivery_time net ~src:0 ~dst:2 ~now:0.0 = None);
  Alcotest.(check bool) "from dead" true
    (Net.delivery_time net ~src:2 ~dst:0 ~now:0.0 = None);
  Alcotest.(check bool) "bystanders fine" true
    (Net.delivery_time net ~src:0 ~dst:1 ~now:0.0 <> None)

let test_up_sites () =
  let net = make (Net.Constant 1.0) in
  Net.crash net 1;
  Net.crash net 3;
  Alcotest.(check (list int)) "up" [ 0; 2 ] (Net.up_sites net);
  Alcotest.(check bool) "is_up" false (Net.is_up net 1);
  Net.recover net 1;
  Alcotest.(check (list int)) "recovered" [ 0; 1; 2 ] (Net.up_sites net)

let test_uniform_within_bounds () =
  let net = make (Net.Uniform { lo = 0.5; hi = 1.5 }) in
  for _ = 1 to 1_000 do
    match Net.delivery_time net ~src:2 ~dst:3 ~now:1000.0 with
    | Some t ->
      (* monotone watermark can only push later, never earlier *)
      Alcotest.(check bool) "at least lo" true (t >= 1000.5)
    | None -> Alcotest.fail "delivery expected"
  done

let test_out_of_range () =
  let net = make (Net.Constant 1.0) in
  Alcotest.(check bool) "src range" true
    (try
       ignore (Net.delivery_time net ~src:9 ~dst:0 ~now:0.0);
       false
     with Invalid_argument _ -> true)

(* ---- fault injection ---- *)

let fmake ?(n = 4) ?(fault_seed = 7) faults delay =
  Net.create ~faults ~fault_rng:(Rng.create fault_seed) ~n ~delay
    ~rng:(Rng.create 1) ()

let test_recover_resets_watermarks () =
  (* Regression: a rejoined site must not have its first messages delayed
     behind pre-crash FIFO watermarks. *)
  let net = make (Net.Constant 5.0) in
  ignore (Net.delivery_time net ~src:0 ~dst:1 ~now:100.0);
  ignore (Net.delivery_time net ~src:1 ~dst:0 ~now:100.0);
  ignore (Net.delivery_time net ~src:0 ~dst:2 ~now:100.0);
  Net.crash net 1;
  Net.recover net 1;
  (match Net.delivery_time net ~src:0 ~dst:1 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "to rejoined site" 5.0 t
  | None -> Alcotest.fail "delivery expected");
  (match Net.delivery_time net ~src:1 ~dst:0 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "from rejoined site" 5.0 t
  | None -> Alcotest.fail "delivery expected");
  (* a pair not touching the crashed site keeps its watermark *)
  match Net.delivery_time net ~src:0 ~dst:2 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "bystander watermark kept" 105.0 t
  | None -> Alcotest.fail "delivery expected"

let test_partition_blocks_cross_group () =
  let faults =
    {
      Net.no_faults with
      partitions =
        [ { Net.from_t = 50.0; until = 150.0; groups = [ [ 0; 1 ]; [ 2 ] ] } ];
    }
  in
  let net = fmake faults (Net.Constant 2.0) in
  (match send net ~src:0 ~dst:2 ~now:60.0 with
  | Error `Partitioned -> ()
  | _ -> Alcotest.fail "cross-group message must drop");
  (* site 3 is in no listed group: it forms the implicit rest-group with
     nobody else, so it is cut off from everyone *)
  (match send net ~src:1 ~dst:3 ~now:60.0 with
  | Error `Partitioned -> ()
  | _ -> Alcotest.fail "rest-group is isolated");
  (match send net ~src:0 ~dst:1 ~now:60.0 with
  | Ok [ t ] -> Alcotest.(check (float 1e-9)) "same group" 62.0 t
  | _ -> Alcotest.fail "same-group message must deliver");
  (match send net ~src:0 ~dst:2 ~now:40.0 with
  | Ok _ -> ()
  | _ -> Alcotest.fail "before the split");
  (match send net ~src:0 ~dst:2 ~now:150.0 with
  | Ok _ -> ()
  | _ -> Alcotest.fail "after the heal");
  Alcotest.(check (list (pair (float 1e-9) bool)))
    "edges" [ (50.0, false); (150.0, true) ] (Net.partition_edges net)

let test_lost_message_keeps_watermark () =
  (* A dropped message must not advance the FIFO watermark: the channel
     behaves as if it was never sent. *)
  let faults =
    {
      Net.no_faults with
      partitions =
        [ { Net.from_t = 50.0; until = 150.0; groups = [ [ 0 ]; [ 1 ] ] } ];
    }
  in
  let net = fmake ~n:2 faults (Net.Constant 2.0) in
  (match send net ~src:0 ~dst:1 ~now:100.0 with
  | Error `Partitioned -> ()
  | _ -> Alcotest.fail "expected partition drop");
  match Net.delivery_time net ~src:0 ~dst:1 ~now:0.0 with
  | Some t -> Alcotest.(check (float 1e-9)) "watermark untouched" 2.0 t
  | None -> Alcotest.fail "delivery expected"

let test_loss_rate () =
  let faults = { Net.no_faults with loss = 0.3 } in
  let net = fmake faults (Net.Constant 1.0) in
  let lost = ref 0 in
  let sent = 4_000 in
  for i = 1 to sent do
    match send net ~src:0 ~dst:1 ~now:(float_of_int i) with
    | Error `Faulty -> incr lost
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "only injected loss expected"
  done;
  let rate = float_of_int !lost /. float_of_int sent in
  Alcotest.(check bool)
    (Printf.sprintf "loss rate %.3f near 0.3" rate)
    true
    (rate > 0.25 && rate < 0.35)

let test_duplication () =
  let faults = { Net.no_faults with duplication = 0.5 } in
  let net = fmake faults (Net.Constant 1.0) in
  let dups = ref 0 in
  let sent = 2_000 in
  for i = 1 to sent do
    match send net ~src:0 ~dst:1 ~now:(float_of_int i) with
    | Ok [ _ ] -> ()
    | Ok [ a; b ] ->
      incr dups;
      Alcotest.(check bool) "copies ordered" true (b >= a)
    | _ -> Alcotest.fail "expected one or two copies"
  done;
  let rate = float_of_int !dups /. float_of_int sent in
  Alcotest.(check bool)
    (Printf.sprintf "dup rate %.3f near 0.5" rate)
    true
    (rate > 0.45 && rate < 0.55)

let test_delay_spike () =
  (* a spike adds its extra seconds; overlapping spikes add up *)
  let faults =
    { Net.no_faults with delay_spikes = [ (10.0, 20.0, 3.0); (18.0, 30.0, 0.5) ] }
  in
  let net = fmake faults (Net.Constant 2.0) in
  let at now expected what =
    match send net ~src:0 ~dst:1 ~now with
    | Ok [ t ] -> Alcotest.(check (float 1e-9)) what expected t
    | _ -> Alcotest.fail "delivery expected"
  in
  at 0.0 2.0 "outside";
  at 15.0 20.0 "plus 3";
  at 19.0 24.5 "both spikes";
  at 25.0 27.5 "second spike only";
  at 30.0 32.0 "window end is exclusive"

let test_fault_determinism () =
  let faults =
    { Net.no_faults with loss = 0.2; duplication = 0.1 }
  in
  let play () =
    let net = fmake faults (Net.Uniform { lo = 0.5; hi = 1.5 }) in
    List.init 500 (fun i ->
        send net ~src:(i mod 3) ~dst:3 ~now:(float_of_int i))
  in
  Alcotest.(check bool) "same seeds, same faults" true (play () = play ())

let test_fault_validation () =
  let bad faults =
    try
      ignore (fmake faults (Net.Constant 1.0));
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "loss = 1" true
    (bad { Net.no_faults with loss = 1.0 });
  Alcotest.(check bool) "negative dup" true
    (bad { Net.no_faults with duplication = -0.1 });
  Alcotest.(check bool) "reorder breaks FIFO channels" true
    (bad { Net.no_faults with reorder = 0.1 });
  Alcotest.(check bool) "overlapping groups" true
    (bad
       {
         Net.no_faults with
         partitions =
           [ { Net.from_t = 0.0; until = 1.0; groups = [ [ 0; 1 ]; [ 1 ] ] } ];
       });
  Alcotest.(check bool) "empty window" true
    (bad
       {
         Net.no_faults with
         partitions = [ { Net.from_t = 5.0; until = 5.0; groups = [ [ 0 ] ] } ];
       });
  Alcotest.(check bool) "zero spike extra" true
    (bad { Net.no_faults with delay_spikes = [ (0.0, 1.0, 0.0) ] })

(* ---- the watermark table ---- *)

let test_transmit_allocation () =
  (* A fault-free send under constant delay allocates nothing; the only
     words counted here are the caller's boxed [~now] and the table's
     first sends and growth. *)
  let n = 16 in
  let net = make ~n (Net.Constant 1.0) in
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    let src = i mod n in
    let dst = (src + 1 + (i / n mod (n - 1))) mod n in
    ignore (Sys.opaque_identity (Net.transmit net ~src ~dst ~now:(float_of_int i)))
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per transmit < 10" per_call)
    true (per_call < 10.0)

let test_watermark_table_growth () =
  (* 39,800 channels grow the table far past its first size; every
     channel's second copy, sent earlier, must still queue behind its
     first, and a recovery must still reset exactly the channels that
     touch the site. *)
  let n = 200 in
  let net = make ~n (Net.Exponential { mean = 1.0 }) in
  let first = Array.make (n * n) 0.0 in
  let each f =
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then f src dst
      done
    done
  in
  let at ~src ~dst ~now =
    match Net.delivery_time net ~src ~dst ~now with
    | Some t -> t
    | None -> Alcotest.fail "up sites must deliver"
  in
  each (fun src dst -> first.((src * n) + dst) <- at ~src ~dst ~now:1000.0);
  let ordered = ref true in
  each (fun src dst ->
      if at ~src ~dst ~now:0.0 < first.((src * n) + dst) then ordered := false);
  Alcotest.(check bool) "per-channel delivery times non-decreasing" true !ordered;
  Net.crash net 7;
  Net.recover net 7;
  Alcotest.(check bool) "to the rejoined site: fresh" true
    (at ~src:8 ~dst:7 ~now:0.0 < 1000.0);
  Alcotest.(check bool) "from the rejoined site: fresh" true
    (at ~src:7 ~dst:199 ~now:0.0 < 1000.0);
  Alcotest.(check bool) "bystander keeps its watermark" true
    (at ~src:8 ~dst:9 ~now:0.0 >= 1000.0)

let test_watermark_floor () =
  (* A delivery time is [max (now + delay) mark], and a channel not yet
     sent on has mark 0.0, so a negative delay delivers no earlier than
     time 0 on a first send, and a NaN delay comes out NaN on every send,
     for the event queue to refuse. *)
  let net = make (Net.Constant (-1.0)) in
  let at ~src ~dst ~now =
    match Net.delivery_time net ~src ~dst ~now with
    | Some t -> t
    | None -> Alcotest.fail "up sites must deliver"
  in
  Alcotest.(check (float 0.0)) "first send floored at 0" 0.0 (at ~src:0 ~dst:1 ~now:0.5);
  Alcotest.(check (float 0.0)) "later send: now + delay" 2.0 (at ~src:0 ~dst:1 ~now:3.0);
  Alcotest.(check (float 0.0)) "held by the watermark" 2.0 (at ~src:0 ~dst:1 ~now:2.5);
  Net.crash net 1;
  Net.recover net 1;
  Alcotest.(check (float 0.0)) "after recovery floored at 0 again" 0.0
    (at ~src:0 ~dst:1 ~now:0.5);
  let net = make (Net.Constant Float.nan) in
  let nan_at ~now =
    match Net.delivery_time net ~src:2 ~dst:3 ~now with
    | Some t -> Float.is_nan t
    | None -> Alcotest.fail "up sites must deliver"
  in
  Alcotest.(check bool) "NaN on a first send" true (nan_at ~now:1.0);
  Alcotest.(check bool) "NaN past a NaN watermark" true (nan_at ~now:2.0)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("constant delay", test_constant_delay);
      ("mean delay per model", test_mean_delay);
      ("FIFO per channel", test_fifo_per_channel);
      ("channels independent", test_channels_independent);
      ("crash drops both directions", test_crash_drops);
      ("up_sites / recover", test_up_sites);
      ("uniform respects bounds", test_uniform_within_bounds);
      ("site range checked", test_out_of_range);
      ("recover resets watermarks", test_recover_resets_watermarks);
      ("partition blocks cross-group", test_partition_blocks_cross_group);
      ("lost message keeps watermark", test_lost_message_keeps_watermark);
      ("loss rate near nominal", test_loss_rate);
      ("duplication delivers ordered copies", test_duplication);
      ("delay spike adds", test_delay_spike);
      ("fault injection deterministic", test_fault_determinism);
      ("fault plans validated", test_fault_validation);
      ("fault-free transmit allocates little", test_transmit_allocation);
      ("watermark table growth", test_watermark_table_growth);
      ("delivery floored at 0 and by the watermark", test_watermark_floor);
    ]
