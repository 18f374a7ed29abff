(* Event queue: time order, deterministic tie-breaking, clock discipline. *)

module Eq = Dmx_sim.Event_queue

let drain q =
  let rec loop acc =
    match Eq.next q with
    | None -> List.rev acc
    | Some ev -> loop ((ev.Eq.time, ev.Eq.payload) :: acc)
  in
  loop []

let test_time_order () =
  let q = Eq.create () in
  Eq.schedule q ~time:3.0 "c";
  Eq.schedule q ~time:1.0 "a";
  Eq.schedule q ~time:2.0 "b";
  Alcotest.(check (list (pair (float 0.0) string)))
    "ordered" [ (1.0, "a"); (2.0, "b"); (3.0, "c") ] (drain q)

let test_tie_break_is_insertion_order () =
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:1.0 p) [ "x"; "y"; "z" ];
  Alcotest.(check (list string))
    "fifo among equals" [ "x"; "y"; "z" ]
    (List.map snd (drain q))

let test_clock_advances () =
  let q = Eq.create () in
  Alcotest.(check (float 0.0)) "starts at 0" 0.0 (Eq.now q);
  Eq.schedule q ~time:5.0 ();
  ignore (Eq.next q);
  Alcotest.(check (float 0.0)) "now is 5" 5.0 (Eq.now q)

let test_no_scheduling_into_past () =
  let q = Eq.create () in
  Eq.schedule q ~time:5.0 ();
  ignore (Eq.next q);
  Alcotest.(check bool) "raises" true
    (try
       Eq.schedule q ~time:4.0 ();
       false
     with Invalid_argument _ -> true)

let test_schedule_at_now_ok () =
  let q = Eq.create () in
  Eq.schedule q ~time:5.0 "first";
  ignore (Eq.next q);
  Eq.schedule q ~time:5.0 "second";
  match Eq.next q with
  | Some { payload = "second"; time = 5.0; _ } -> ()
  | _ -> Alcotest.fail "expected second at t=5"

let test_rejects_nan () =
  let q = Eq.create () in
  Alcotest.(check bool) "nan rejected" true
    (try
       Eq.schedule q ~time:Float.nan ();
       false
     with Invalid_argument _ -> true)

let test_peek_time () =
  let q = Eq.create () in
  Alcotest.(check (option (float 0.0))) "empty" None (Eq.peek_time q);
  Eq.schedule q ~time:2.0 ();
  Eq.schedule q ~time:1.0 ();
  Alcotest.(check (option (float 0.0))) "min" (Some 1.0) (Eq.peek_time q)

let test_drop_if () =
  let q = Eq.create () in
  List.iteri (fun i p -> Eq.schedule q ~time:(float_of_int i) p) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "dropped" 2 (Eq.drop_if q (fun p -> p mod 2 = 1));
  Alcotest.(check (list int)) "evens" [ 0; 2; 4 ] (List.map snd (drain q))

let test_drop_if_preserves_tie_break () =
  (* Survivors of a drop keep their original insertion seq, so equal-time
     events still drain in insertion order — the engine depends on this
     when a crash purges a site's events mid-run. *)
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:1.0 p) [ "a"; "b"; "c"; "d"; "e"; "f" ];
  Alcotest.(check int) "dropped" 2 (Eq.drop_if q (fun p -> p = "b" || p = "e"));
  Alcotest.(check (list string))
    "insertion order among equals survives the drop"
    [ "a"; "c"; "d"; "f" ]
    (List.map snd (drain q))

let test_drop_if_interleaves_late_inserts () =
  (* After a drop, new events at the same time still sort behind the
     surviving older ones. *)
  let q = Eq.create () in
  List.iter (fun p -> Eq.schedule q ~time:2.0 p) [ 10; 11; 12 ];
  ignore (Eq.drop_if q (fun p -> p = 11));
  Eq.schedule q ~time:2.0 13;
  Alcotest.(check (list int)) "old-then-new among equals" [ 10; 12; 13 ]
    (List.map snd (drain q))

let qcheck_drop_if_order =
  QCheck.Test.make ~name:"drop_if preserves (time, seq) order" ~count:300
    QCheck.(pair (list (float_bound_inclusive 100.0)) small_int)
    (fun (times, m) ->
      let q = Eq.create () in
      List.iteri (fun i t -> Eq.schedule q ~time:t (i, t)) times;
      let keep (i, _) = i mod (1 + m) <> 0 in
      let dropped = Eq.drop_if q (fun p -> not (keep p)) in
      let drained = drain q in
      let rec ordered = function
        | (t1, (i1, _)) :: ((t2, (i2, _)) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      dropped + List.length drained = List.length times
      && List.for_all (fun (_, p) -> keep p) drained
      && ordered drained)

let test_length () =
  let q = Eq.create () in
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Eq.schedule q ~time:1.0 ();
  Eq.schedule q ~time:2.0 ();
  Alcotest.(check int) "two" 2 (Eq.length q)

(* Heap cases: the queue is a binary heap on (time, seq), and these cases
   carry the generic heap's tests over to it under their original names.
   The heap's [filter_in_place h keep] is [drop_if q (fun p -> not (keep p))]
   here; past-time scheduling is refused, so interleaved inserts land at or
   after [now]. *)

let test_empty () =
  let q = Eq.create () in
  Alcotest.(check bool) "is_empty" true (Eq.is_empty q);
  Alcotest.(check int) "length" 0 (Eq.length q);
  Alcotest.(check (option (float 0.0))) "peek_time" None (Eq.peek_time q);
  Alcotest.(check bool) "next" true (Eq.next q = None);
  Alcotest.(check int) "no pop counted" 0 (Eq.pops q)

let test_drain_duplicate_keys () =
  let q = Eq.create () in
  List.iteri
    (fun i t -> Eq.schedule q ~time:t i)
    [ 5.; 1.; 4.; 1.; 5.; 9.; 2.; 6.; 5.; 3. ];
  Alcotest.(check (list (pair (float 0.0) int)))
    "sorted by time, then insertion"
    [ (1., 1); (1., 3); (2., 6); (3., 9); (4., 2); (5., 0); (5., 4); (5., 8); (6., 7); (9., 5) ]
    (drain q)

let test_interleaved_schedule_next () =
  (* an event scheduled after a pop still overtakes a later pending one *)
  let q = Eq.create () in
  let pop () = match Eq.next q with Some ev -> ev.Eq.payload | None -> -1 in
  Eq.schedule q ~time:3.0 3;
  Eq.schedule q ~time:1.0 1;
  Alcotest.(check int) "min is 1" 1 (pop ());
  Eq.schedule q ~time:1.5 15;
  Eq.schedule q ~time:2.0 2;
  Alcotest.(check int) "min is 1.5" 15 (pop ());
  Alcotest.(check int) "then 2" 2 (pop ());
  Alcotest.(check int) "then 3" 3 (pop ());
  Alcotest.(check bool) "empty" true (Eq.is_empty q)

let test_growth () =
  let q = Eq.create () in
  for i = 1000 downto 1 do
    Eq.schedule q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "length" 1000 (Eq.length q);
  Alcotest.(check int) "peak" 1000 (Eq.peak q);
  Alcotest.(check (list int)) "sorted drain" (List.init 1000 (fun i -> i + 1))
    (List.map snd (drain q))

let schedule_keys q keys =
  List.iter (fun t -> Eq.schedule q ~time:(float_of_int t) t) keys

let test_filter_keeps_evens () =
  let q = Eq.create () in
  schedule_keys q [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "dropped odd" 3 (Eq.drop_if q (fun p -> p mod 2 <> 0));
  Alcotest.(check (list int)) "evens remain sorted" [ 2; 4; 6 ] (List.map snd (drain q))

let test_filter_drops_all () =
  (* a drop that keeps nothing leaves a usable heap *)
  let q = Eq.create () in
  schedule_keys q [ 3; 1; 2 ];
  Alcotest.(check int) "dropped all" 3 (Eq.drop_if q (fun _ -> true));
  Alcotest.(check bool) "empty" true (Eq.is_empty q);
  Eq.schedule q ~time:7.0 7;
  Alcotest.(check (list int)) "usable afterwards" [ 7 ] (List.map snd (drain q))

let test_filter_keeps_all () =
  let q = Eq.create () in
  schedule_keys q [ 4; 2; 8; 6 ];
  Alcotest.(check int) "dropped none" 0 (Eq.drop_if q (fun _ -> false));
  Alcotest.(check (list int)) "unchanged" [ 2; 4; 6; 8 ] (List.map snd (drain q))

let qcheck_filter_sorted =
  QCheck.Test.make ~name:"filter_in_place = sorted List.filter" ~count:300
    QCheck.(pair (list small_nat) small_int)
    (fun (xs, m) ->
      let keep x = x mod (1 + m) <> 0 in
      let q = Eq.create () in
      schedule_keys q xs;
      ignore (Eq.drop_if q (fun x -> not (keep x)));
      List.map snd (drain q) = List.sort Int.compare (List.filter keep xs))

let qcheck_drain_sorted =
  QCheck.Test.make ~name:"heap drains sorted" ~count:300
    QCheck.(list small_nat)
    (fun xs ->
      let q = Eq.create () in
      schedule_keys q xs;
      List.map snd (drain q) = List.sort Int.compare xs)

(* Schedule fresh payloads watched through a [Weak] array; [live] counts
   those the GC has not reclaimed. *)
let watched q w ~n =
  for i = 0 to n - 1 do
    let p = Sys.opaque_identity (ref i) in
    Weak.set w i (Some p);
    Eq.schedule q ~time:(float_of_int (i mod 7)) p
  done

let live w =
  Gc.full_major ();
  let k = ref 0 in
  for i = 0 to Weak.length w - 1 do
    if Weak.check w i then incr k
  done;
  !k

let test_releases_popped () =
  let n = 1000 in
  let q = Eq.create () and w = Weak.create n in
  watched q w ~n;
  Alcotest.(check int) "all held while pending" n (live w);
  for _ = 1 to n / 2 do
    ignore (Sys.opaque_identity (Eq.next q))
  done;
  Alcotest.(check int) "popped half released" (n / 2) (live w);
  while Eq.next q <> None do () done;
  Alcotest.(check int) "all popped released" 0 (live w);
  Eq.schedule q ~time:(Eq.now q) (ref 0);
  Alcotest.(check int) "queue still usable" 1 (Eq.length q)

let test_releases_dropped () =
  let n = 1000 in
  let q = Eq.create () and w = Weak.create n in
  watched q w ~n;
  Alcotest.(check int) "dropped odd" (n / 2) (Eq.drop_if q (fun p -> !p land 1 = 1));
  Alcotest.(check int) "dropped released" (n / 2) (live w);
  for i = 0 to n - 1 do
    if Weak.check w i <> (i land 1 = 0) then Alcotest.failf "payload %d" i
  done;
  ignore (Eq.drop_if q (fun _ -> true));
  Alcotest.(check int) "all dropped released" 0 (live w)

(* Model test: random interleavings against a reference list sorted by
   (time, seq). Times are small integers past [now], so ties are the
   norm, as under a constant network delay. Schedules outnumber pops two
   to one, so long runs take the queue through several doublings (a
   median peak near 70 pending events, past 130 in the tail). *)
type op = Schedule of int | Next | Peek | Drop of int * int | Length

let pp_op = function
  | Schedule d -> Printf.sprintf "schedule +%d" d
  | Next -> "next"
  | Peek -> "peek"
  | Drop (m, r) -> Printf.sprintf "drop %%%d=%d" m r
  | Length -> "length"

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 0 1200)
      (frequency
         [
           (20, map (fun d -> Schedule d) (int_range 0 3));
           (10, return Next);
           (2, return Peek);
           (2, return Length);
           (1, map2 (fun m r -> Drop (m, r mod m)) (int_range 3 12) (int_range 0 11));
         ]))

let qcheck_model =
  QCheck.Test.make ~name:"model vs sorted reference list"
    ~count:200
    (QCheck.make ~print:QCheck.Print.(list pp_op) gen_ops)
    (fun ops ->
      let q = Eq.create () in
      (* pending (time, seq) in pop order; the payload is the seq *)
      let model = ref [] and now = ref 0.0 in
      let pushes = ref 0 and pops = ref 0 and peak = ref 0 in
      let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt in
      let step = function
        | Schedule d ->
          let time = !now +. float_of_int d and seq = !pushes in
          Eq.schedule q ~time seq;
          incr pushes;
          model := List.merge compare !model [ (time, seq) ];
          peak := max !peak (List.length !model)
        | Next -> (
          match (Eq.next q, !model) with
          | None, [] -> ()
          | Some ev, (time, seq) :: rest ->
            if ev.Eq.time <> time || ev.Eq.seq <> seq || ev.Eq.payload <> seq then
              fail "popped (%g, %d), expected (%g, %d)" ev.Eq.time ev.Eq.seq time seq;
            model := rest;
            now := time;
            incr pops
          | Some _, [] -> fail "popped from an empty model"
          | None, _ :: _ -> fail "queue empty, model is not")
        | Peek ->
          let expect = match !model with [] -> None | (t, _) :: _ -> Some t in
          if Eq.peek_time q <> expect then fail "peek_time differs"
        | Drop (m, r) ->
          let drop seq = seq mod m = r in
          let n = Eq.drop_if q drop in
          let kept = List.filter (fun (_, seq) -> not (drop seq)) !model in
          if n <> List.length !model - List.length kept then fail "drop count";
          model := kept
        | Length ->
          if Eq.length q <> List.length !model then fail "length differs"
      in
      List.iter step ops;
      if Eq.now q <> !now then fail "now %g, expected %g" (Eq.now q) !now;
      if Eq.pushes q <> !pushes then fail "pushes";
      if Eq.pops q <> !pops then fail "pops";
      if Eq.peak q <> !peak then fail "peak %d, expected %d" (Eq.peak q) !peak;
      Eq.is_empty q = (!model = []))

let qcheck_ordered_drain =
  QCheck.Test.make ~name:"events drain in (time, seq) order" ~count:300
    QCheck.(list (float_bound_inclusive 1000.0))
    (fun times ->
      let q = Eq.create () in
      List.iteri (fun i t -> Eq.schedule q ~time:t (i, t)) times;
      let drained = drain q in
      (* times non-decreasing, and among equal times the indices ascend *)
      let rec ok = function
        | (t1, (i1, _)) :: ((t2, (i2, _)) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ok rest
        | _ -> true
      in
      ok drained)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("time order", test_time_order);
      ("tie-break by insertion", test_tie_break_is_insertion_order);
      ("clock advances", test_clock_advances);
      ("no past scheduling", test_no_scheduling_into_past);
      ("schedule at current time", test_schedule_at_now_ok);
      ("rejects nan", test_rejects_nan);
      ("peek_time", test_peek_time);
      ("drop_if", test_drop_if);
      ("drop_if keeps tie-break", test_drop_if_preserves_tie_break);
      ("drop_if then insert at same time", test_drop_if_interleaves_late_inserts);
      ("length / is_empty", test_length);
      ("next releases popped payloads", test_releases_popped);
      ("drop_if releases dropped payloads", test_releases_dropped);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_ordered_drain;
      QCheck_alcotest.to_alcotest qcheck_drop_if_order;
      QCheck_alcotest.to_alcotest qcheck_model;
    ]

let heap_suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("empty heap", test_empty);
      ("drains sorted", test_drain_duplicate_keys);
      ("interleaved add/pop", test_interleaved_schedule_next);
      ("growth to 1000", test_growth);
      ("filter_in_place", test_filter_keeps_evens);
      ("filter_in_place drops all", test_filter_drops_all);
      ("filter_in_place keeps all", test_filter_keeps_all);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_drain_sorted;
      QCheck_alcotest.to_alcotest qcheck_filter_sorted;
    ]
