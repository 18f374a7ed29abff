(* The benchmark's own tests: the Timed wrapper changes nothing a run
   reports, so the traced run measures the same program; the smoke run
   covers every workload and metric BENCHMARK.json names; a truncated
   trace fails sim-checked instead of yielding numbers; and compare's
   statistics match the definitions it documents.

   Usage: test_perf.exe RUN_EXE BENCHMARK_JSON *)

module E = Dmx_sim.Engine
module Summary = Dmx_sim.Stats.Summary
module Swarm = Dmx_service.Swarm
module W = Dmx_perf.Workloads
module R = Dmx_perf.Results
module Span = Dmx_perf.Span

let run_exe = ref ""
let bench = ref ""

let smoke =
  { W.seed = 3; seconds = 1.0; trace = false; trace_dir = None; smoke = true; trace_capacity = None }

(* exact float equality, readable on failure *)
let floats = Alcotest.(list string)
let exact xs = List.map (Printf.sprintf "%h") xs

let summary s =
  exact
    [
      float_of_int (Summary.count s);
      Summary.mean s;
      Summary.min s;
      Summary.max s;
      Summary.percentile s 50.0;
      Summary.percentile s 99.0;
    ]

let same_report what (a : E.report) (b : E.report) =
  let open Alcotest in
  check (list (pair string int)) (what ^ ": messages by kind") a.E.messages_by_kind b.E.messages_by_kind;
  check int (what ^ ": executions") a.E.executions b.E.executions;
  check int (what ^ ": violations") a.E.violations b.E.violations;
  check bool (what ^ ": deadlocked") a.E.deadlocked b.E.deadlocked;
  check floats (what ^ ": sync delay") (summary a.E.sync_delay) (summary b.E.sync_delay);
  check floats (what ^ ": response time") (summary a.E.response_time) (summary b.E.response_time);
  check (array int) (what ^ ": per-site executions") a.E.per_site_executions b.E.per_site_executions

let with_spans f =
  Span.reset ();
  Span.on := true;
  Span.stamping := true;
  Fun.protect
    ~finally:(fun () ->
      Span.on := false;
      Span.stamping := false;
      ignore (Span.take_gaps_ms ()))
    f

let test_engine_transparent () =
  let cfg = W.heavy_cfg smoke smoke.W.seed in
  let pc = W.heavy_pconfig ~n:cfg.E.n in
  let module Plain = E.Make (Dmx_core.Delay_optimal) in
  let plain = Plain.run cfg pc in
  same_report "untraced" plain (W.Heavy.run cfg pc);
  same_report "traced" plain (with_spans (fun () -> W.Heavy.run cfg pc));
  Alcotest.(check bool) "spans were recorded" true ((Span.total "protocol.on_message").Span.count > 0)

let test_checked_matches_runner () =
  let cfg = W.checked_cfg smoke smoke.W.seed in
  let runner =
    match
      Dmx_baselines.Runner.of_algo ~faults:cfg.E.faults ~detector:cfg.E.detector
        ~kind:Dmx_quorum.Builder.Grid "ft-delay-optimal" ~n:cfg.E.n
    with
    | Ok r -> r
    | Error e -> Alcotest.fail e
  in
  let expect = runner.Dmx_baselines.Runner.run_traced cfg in
  let pc = W.checked_pconfig ~n:cfg.E.n in
  same_report "untraced" expect (W.Checked.run cfg pc);
  same_report "traced" expect (with_spans (fun () -> W.Checked.run cfg pc))

let shard_view (s : Swarm.shard_outcome) =
  [
    string_of_int s.Swarm.acquires;
    string_of_int s.Swarm.grants;
    string_of_int s.Swarm.expiries;
    string_of_int s.Swarm.trace_entries;
    string_of_bool (Swarm.shard_ok s);
  ]
  @ summary s.Swarm.latency

let test_twin_transparent () =
  let cfg = W.twin_cfg smoke smoke.W.seed in
  let get = function Ok o -> o | Error e -> Alcotest.fail e in
  let expect = get (Dmx_service.Sim_swarm.run_named cfg) in
  let got = get (with_spans (fun () -> W.twin_run cfg)) in
  Alcotest.(check (array (list string)))
    "per-shard grants, percentiles and verdicts"
    (Array.map shard_view expect.Swarm.per_shard)
    (Array.map shard_view got.Swarm.per_shard);
  Alcotest.(check int) "re-homed sessions" expect.Swarm.rehomed_sessions got.Swarm.rehomed_sessions;
  Alcotest.(check bool) "codec spans were recorded" true ((Span.total "codec.encode").Span.count > 0)

let run_driver args ~stdout = Sys.command (Filename.quote_command !run_exe args ~stdout)

let last_line file =
  let ic = open_in file in
  let rec go last = match input_line ic with l -> go l | exception End_of_file -> last in
  let l = go "" in
  close_in ic;
  l

let test_smoke () =
  let code = run_driver [ "--smoke"; "--trace"; "1"; "--out"; "smoke.json" ] ~stdout:"smoke.out" in
  Alcotest.(check int) "exit code" 0 code;
  let workloads, e2e, per_layer = R.read_benchmark !bench in
  let names = List.map (fun (m : R.bench_metric) -> (m.R.m_name, m.R.m_unit)) in
  Alcotest.(check (list string)) "BENCHMARK.json workloads" W.names workloads;
  Alcotest.(check (list (pair string string))) "BENCHMARK.json end-to-end metrics" R.end_to_end (names e2e);
  Alcotest.(check (list (pair string string))) "BENCHMARK.json per-layer metrics" R.per_layer (names per_layer);
  let results = R.read_results "smoke.json" in
  Alcotest.(check (list string)) "workloads run" workloads (List.map fst results);
  List.iter
    (fun (w, ms) ->
      List.iter
        (fun (m : R.bench_metric) ->
          match List.assoc_opt m.R.m_name ms with
          | None -> Alcotest.failf "%s: metric %s missing" w m.R.m_name
          | Some (v, u) ->
            Alcotest.(check string) (Printf.sprintf "%s %s unit" w m.R.m_name) m.R.m_unit u;
            if List.memq m e2e && not (v > 0.0) then
              Alcotest.failf "%s: end-to-end metric %s reads %g" w m.R.m_name v)
        (e2e @ per_layer))
    results;
  (* two identical result sets agree on every metric *)
  let code =
    run_driver [ "compare"; "smoke.json"; "smoke.json"; "--benchmark"; !bench ] ~stdout:"compare.out"
  in
  Alcotest.(check int) "compare exit code" 0 code;
  let ic = open_in "compare.out" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains sub =
    let n = String.length text and m = String.length sub in
    let rec go i = i + m <= n && (String.sub text i m = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun bad -> if contains bad then Alcotest.failf "compare reported %S:\n%s" bad text)
    [ " worse"; " unresolved"; " better"; "missing" ]

let test_truncated_trace_fails () =
  let code =
    run_driver
      [ "--smoke"; "--workload"; "sim-checked"; "--trace-capacity"; "1000"; "--out"; "neg.json" ]
      ~stdout:"neg.out"
  in
  Alcotest.(check bool) "nonzero exit" true (code <> 0);
  let r =
    match R.field "workloads" (R.read_json "neg.json") with
    | Some ws -> Option.get (R.field "sim-checked" ws)
    | None -> Alcotest.fail "no workloads in neg.json"
  in
  Alcotest.(check bool) "correct" false (R.field "correct" r = Some (Dmx_model.Json.Bool true));
  (match R.field "failed" r with
  | Some (Dmx_model.Json.Number f) when f > 0.0 -> ()
  | _ -> Alcotest.fail "failed count is not positive");
  Alcotest.(check bool) "no metrics" true (R.field "metrics" r = Some (Dmx_model.Json.Obj []));
  match Dmx_model.Json.parse (last_line "neg.out") with
  | Ok j -> Alcotest.(check bool) "summary line says incorrect" true (R.field "correct" j = Some (Dmx_model.Json.Bool false))
  | Error e -> Alcotest.fail e

let test_quartiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) and ([1, 2], n=4) *)
  let q xs = let a, b, c = R.quartiles xs in [ a; b; c ] in
  Alcotest.(check (list (float 1e-12))) "1..10" [ 2.75; 5.5; 8.25 ] (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list (float 1e-12))) "1, 2" [ 0.75; 1.5; 2.25 ] (q [ 1.0; 2.0 ])

let test_judge () =
  let v = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (R.verdict_name v)) ( = ) in
  let base = [ 100.0; 101.0; 99.0 ] in
  let j ?(higher = true) b = R.judge ~higher ~bound:0.1 base b in
  Alcotest.check v "equal" R.Same (j base);
  Alcotest.check v "within bound" R.Same (j [ 95.0; 96.0; 94.0 ]);
  Alcotest.check v "beyond bound" R.Worse (j [ 80.0; 81.0; 79.0 ]);
  Alcotest.check v "clear win" R.Better (j [ 120.0; 121.0; 119.0 ]);
  Alcotest.check v "lower is better" R.Worse (j ~higher:false [ 120.0; 121.0; 119.0 ]);
  Alcotest.check v "spread over bound" R.Unresolved (R.judge ~higher:true ~bound:0.1 [ 50.0; 100.0; 150.0 ] base)

let () =
  (match Sys.argv with
  | [| _; exe; b |] ->
    run_exe := exe;
    bench := b
  | _ ->
    prerr_endline "usage: test_perf.exe RUN_EXE BENCHMARK_JSON";
    exit 2);
  Alcotest.run ~argv:[| Sys.argv.(0) |] "perf"
    [
      ( "timed",
        [
          Alcotest.test_case "engine run is unchanged" `Quick test_engine_transparent;
          Alcotest.test_case "ft run matches Runner's" `Quick test_checked_matches_runner;
          Alcotest.test_case "sim-swarm run is unchanged" `Quick test_twin_transparent;
        ] );
      ( "driver",
        [
          Alcotest.test_case "smoke covers BENCHMARK.json" `Quick test_smoke;
          Alcotest.test_case "truncated trace fails" `Quick test_truncated_trace_fails;
        ] );
      ( "compare",
        [ Alcotest.test_case "quartiles" `Quick test_quartiles; Alcotest.test_case "verdicts" `Quick test_judge ] );
    ]
