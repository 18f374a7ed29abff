(* Trace collector: enable flag, order, capacity trimming, the flat
   storage's iterator and reuse, the streaming collector, and the oracle
   reading the collector directly or fed as records arrive. *)

module Trace = Dmx_sim.Trace
module O = Dmx_sim.Oracle

let record_all t entries =
  List.iter
    (fun (e : Trace.entry) -> Trace.record t ~time:e.time ~site:e.site e.kind)
    entries

let test_disabled_records_nothing () =
  let t = Trace.create () in
  Trace.record t ~time:1.0 ~site:0 Trace.Enter_cs;
  Alcotest.(check int) "nothing stored" 0 (Trace.length t);
  Alcotest.(check bool) "disabled" false (Trace.enabled t)

let test_chronological_entries () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:1.0 ~site:0 (Trace.Note "a");
  Trace.record t ~time:2.0 ~site:1 (Trace.Note "b");
  Trace.record t ~time:3.0 ~site:2 (Trace.Note "c");
  Alcotest.(check (list string)) "in order" [ "a"; "b"; "c" ]
    (List.map
       (fun e -> match e.Trace.kind with Trace.Note s -> s | _ -> "?")
       (Trace.entries t))

let test_capacity_trims_oldest () =
  let t = Trace.create ~enabled:true ~capacity:10 () in
  for i = 1 to 11 do
    Trace.record t ~time:(float_of_int i) ~site:0 (Trace.Note (string_of_int i))
  done;
  Alcotest.(check bool) "trimmed" true (Trace.length t <= 10);
  let times = List.map (fun e -> e.Trace.time) (Trace.entries t) in
  Alcotest.(check bool) "kept the newest" true (List.mem 11.0 times);
  Alcotest.(check bool) "dropped the oldest" false (List.mem 1.0 times)

let test_trim_keeps_newest_half () =
  (* odd and even capacities, trimmed once and several times over *)
  List.iter
    (fun (capacity, records) ->
      let t = Trace.create ~enabled:true ~capacity () in
      for i = 1 to records do
        Trace.record t ~time:(float_of_int i) ~site:(i mod 7)
          (Trace.Note (string_of_int i))
      done;
      (* every trim keeps capacity/2 entries; later records refill up to
         capacity, and the next one past it trims again *)
      let rec expect len i =
        if i > records then len
        else if len + 1 > capacity then expect (capacity / 2) (i + 1)
        else expect (len + 1) (i + 1)
      in
      let len = expect 0 1 in
      let label = Printf.sprintf "capacity %d, %d records" capacity records in
      Alcotest.(check int) (label ^ ": length") len (Trace.length t);
      let newest = List.init len (fun k -> records - len + 1 + k) in
      Alcotest.(check (list (triple (float 0.0) int string)))
        (label ^ ": exactly the newest, in order")
        (List.map
           (fun i -> (float_of_int i, i mod 7, string_of_int i))
           newest)
        (List.map
           (fun (e : Trace.entry) ->
             ( e.time,
               e.site,
               match e.kind with Trace.Note s -> s | _ -> "?" ))
           (Trace.entries t)))
    [ (10, 11); (10, 17); (9, 10); (9, 40); (1, 5); (1000, 5000) ]

let test_iter_agrees_with_entries () =
  let t = Trace.create ~enabled:true ~capacity:50 () in
  for i = 1 to 123 do
    Trace.record t ~time:(float_of_int i *. 0.5) ~site:(i mod 5)
      (if i mod 3 = 0 then Trace.Send { dst = i mod 4; msg = string_of_int i }
       else Trace.Timer i)
  done;
  let via_iter = ref [] in
  Trace.iter
    (fun ~time ~site kind -> via_iter := { Trace.time; site; kind } :: !via_iter)
    t;
  Alcotest.(check bool) "same entries, same order" true
    (List.rev !via_iter = Trace.entries t);
  Alcotest.(check int) "length" (Trace.length t) (List.length !via_iter)

let test_reuse_after_clear () =
  let t = Trace.create ~enabled:true ~capacity:8 () in
  for i = 1 to 20 do
    Trace.record t ~time:(float_of_int i) ~site:0 Trace.Crash
  done;
  Trace.clear t;
  Alcotest.(check (list string)) "empty after clear" []
    (List.map (fun _ -> "?") (Trace.entries t));
  for i = 1 to 5 do
    Trace.record t ~time:(float_of_int (100 + i)) ~site:i Trace.Recover
  done;
  Alcotest.(check (list (pair (float 0.0) int)))
    "records afresh"
    (List.init 5 (fun k -> (float_of_int (101 + k), k + 1)))
    (List.map (fun (e : Trace.entry) -> (e.time, e.site)) (Trace.entries t));
  Alcotest.(check bool) "complete again" false (Trace.truncated t)

(* [O.check_trace] walks the collector's arrays; it must reach the verdict
   [O.check] reaches on the same entries as a list, and the oracle fed
   through a streaming collector must reach it too. *)
let streamed cfg entries =
  let o = O.create cfg in
  record_all (Trace.stream (O.feed o)) entries;
  O.finish o

let test_check_trace_agrees_injected () =
  List.iter
    (fun (label, cfg, entries) ->
      let t = Trace.create ~enabled:true () in
      record_all t entries;
      let v = O.check_trace cfg t in
      Alcotest.(check bool) (label ^ ": rejected") false (O.ok v);
      Alcotest.(check bool)
        (label ^ ": same verdict as the list form")
        true
        (v = O.check cfg (Trace.entries t) ~truncated:false
        && v = O.check cfg entries ~truncated:false);
      Alcotest.(check bool)
        (label ^ ": same verdict fed as recorded")
        true
        (v = streamed cfg entries))
    Test_oracle.injected

let test_check_trace_agrees_clean_run () =
  let s =
    {
      (Dmx_sim.Schedule.default ~algo:"ft-delay-optimal" ~n:9) with
      Dmx_sim.Schedule.quorum = "grid";
      seed = 5;
      execs = 60;
      delay = Dmx_sim.Network.Exponential { mean = 1.0 };
      faults = { Dmx_sim.Network.no_faults with Dmx_sim.Network.loss = 0.05 };
      reliability = true;
    }
  in
  match Dmx_baselines.Runner.run_schedule s with
  | Error e -> Alcotest.fail e
  | Ok (_, t) ->
    let cfg = O.default ~n:9 in
    let v = O.check_trace cfg t in
    Alcotest.(check bool) "clean" true (O.ok v);
    Alcotest.(check bool) "a real run" true
      (v.O.cs_entries >= 60 && v.O.messages > 0);
    Alcotest.(check int) "every entry checked" (Trace.length t)
      v.O.entries_checked;
    Alcotest.(check bool) "same verdict as the list form" true
      (v = O.check cfg (Trace.entries t) ~truncated:false);
    (* the same run again, this time feeding the oracle as it records *)
    let o = O.create cfg in
    (match Dmx_baselines.Runner.of_schedule s with
    | Error e -> Alcotest.fail e
    | Ok r ->
      ignore
        (r.Dmx_baselines.Runner.run_traced
           ~trace_sink:(Trace.stream (O.feed o))
           (Dmx_sim.Schedule.to_engine_config s)));
    Alcotest.(check bool) "same verdict fed as recorded" true (v = O.finish o)

let test_stream_stores_nothing () =
  let seen = ref [] in
  let t =
    Trace.stream (fun ~time ~site kind ->
        seen := { Trace.time; site; kind } :: !seen)
  in
  Alcotest.(check bool) "enabled" true (Trace.enabled t);
  let entries =
    List.init 5 (fun i ->
        { Trace.time = float_of_int i; site = i; kind = Trace.Timer i })
  in
  record_all t entries;
  Alcotest.(check bool) "consumer saw every record, in order" true
    (List.rev !seen = entries);
  Alcotest.(check int) "nothing stored" 0 (Trace.length t);
  Alcotest.(check bool) "never truncated" false (Trace.truncated t)

(* A clipped collector is refused without being walked: the verdict
   counts the entries it still holds. *)
let test_check_trace_truncated () =
  let t = Trace.create ~enabled:true ~capacity:10 () in
  for i = 1 to 11 do
    Trace.record t ~time:(float_of_int i) ~site:0 Trace.Enter_cs
  done;
  let v = O.check_trace (O.default ~n:4) t in
  Alcotest.(check bool) "truncated" true v.O.truncated;
  Alcotest.(check bool) "not ok" false (O.ok v);
  Alcotest.(check int) "entries counted" (Trace.length t) v.O.entries_checked;
  Alcotest.(check int) "nothing checked" 0 (List.length v.O.violations)

let test_clear () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:1.0 ~site:0 Trace.Crash;
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.length t)

let test_truncated_flag () =
  let t = Trace.create ~enabled:true ~capacity:10 () in
  for i = 1 to 10 do
    Trace.record t ~time:(float_of_int i) ~site:0 (Trace.Note "x")
  done;
  Alcotest.(check bool) "complete while within capacity" false
    (Trace.truncated t);
  Trace.record t ~time:11.0 ~site:0 (Trace.Note "overflow");
  Alcotest.(check bool) "flagged once trimming discarded entries" true
    (Trace.truncated t);
  (* the flag is sticky for the rest of the run... *)
  Trace.record t ~time:12.0 ~site:0 (Trace.Note "later");
  Alcotest.(check bool) "sticky" true (Trace.truncated t);
  (* ...and resets with the collector *)
  Trace.clear t;
  Alcotest.(check bool) "cleared with the trace" false (Trace.truncated t)

let test_pp_entry () =
  let e = { Trace.time = 1.5; site = 3; kind = Trace.Send { dst = 7; msg = "hi" } } in
  let s = Format.asprintf "%a" Trace.pp_entry e in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
    at 0
  in
  Alcotest.(check bool) "mentions the destination" true (contains "-> 7");
  Alcotest.(check bool) "mentions the payload" true (contains "hi")

let test_timeline () =
  let t = Trace.create ~enabled:true () in
  Trace.record t ~time:0.0 ~site:0 Trace.Enter_cs;
  Trace.record t ~time:5.0 ~site:0 Trace.Exit_cs;
  Trace.record t ~time:5.0 ~site:1 Trace.Enter_cs;
  Trace.record t ~time:10.0 ~site:1 Trace.Exit_cs;
  Trace.record t ~time:10.0 ~site:2 Trace.Crash;
  let s = Trace.timeline ~width:20 t ~n:3 in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + 3 lanes + trailing" 5 (List.length lines);
  let lane i = List.nth lines (i + 1) in
  Alcotest.(check bool) "site 0 in CS early" true
    (String.contains (lane 0) '#');
  Alcotest.(check bool) "site 2 crashed" true (String.contains (lane 2) 'X');
  (* site 0's lane must not show CS in its last quarter *)
  let l0 = lane 0 in
  let tail = String.sub l0 (String.length l0 - 5) 5 in
  Alcotest.(check bool) "site 0 idle at end" false (String.contains tail '#')

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("disabled records nothing", test_disabled_records_nothing);
      ("chronological entries", test_chronological_entries);
      ("capacity trims oldest", test_capacity_trims_oldest);
      ("trim keeps exactly the newest half", test_trim_keeps_newest_half);
      ("iter agrees with entries", test_iter_agrees_with_entries);
      ("reuse after clear", test_reuse_after_clear);
      ("check_trace = check: injected violations",
       test_check_trace_agrees_injected);
      ("check_trace = check: clean checked run",
       test_check_trace_agrees_clean_run);
      ("stream stores nothing", test_stream_stores_nothing);
      ("check_trace refuses a truncated trace", test_check_trace_truncated);
      ("clear", test_clear);
      ("truncated flag", test_truncated_flag);
      ("entry pretty-printer", test_pp_entry);
      ("timeline rendering", test_timeline);
    ]
