(* dmx-sim: command-line front end to the simulator.

   dmx-sim run       -- simulate one algorithm and print its report
   dmx-sim compare   -- run every algorithm under the same scenario
   dmx-sim validate  -- re-check a CSV report against the paper's
                        Section 5 closed forms
   dmx-sim quorums   -- print and validate a quorum construction
   dmx-sim avail     -- availability sweep for a construction
   dmx-sim trace     -- short annotated execution trace of a run
   dmx-sim cluster   -- run a real multi-process cluster over TCP or UDP
*)

(* When a driver re-executes this binary as a daemon image, the spec
   arrives in the environment; nothing else may run first. *)
let () = Dmx_service.Snode.run_as_child_if_requested ()

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module W = Dmx_sim.Workload
module R = Dmx_baselines.Runner
module B = Dmx_quorum.Builder
open Cmdliner

(* ---- shared argument parsing ---- *)

let delay_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "bad delay %S (expected constant:D | uniform:LO,HI | exp:MEAN \
               | shifted:BASE,MEAN)" s))
    in
    match String.split_on_char ':' s with
    | [ "constant"; d ] -> (
      match float_of_string_opt d with
      | Some d -> Ok (Net.Constant d)
      | None -> fail ())
    | [ "uniform"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ lo; hi ] -> (
        match (float_of_string_opt lo, float_of_string_opt hi) with
        | Some lo, Some hi -> Ok (Net.Uniform { lo; hi })
        | _ -> fail ())
      | _ -> fail ())
    | [ "exp"; m ] -> (
      match float_of_string_opt m with
      | Some mean -> Ok (Net.Exponential { mean })
      | None -> fail ())
    | [ "shifted"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ b; m ] -> (
        match (float_of_string_opt b, float_of_string_opt m) with
        | Some base, Some extra_mean ->
          Ok (Net.Shifted_exponential { base; extra_mean })
        | _ -> fail ())
      | _ -> fail ())
    | _ -> fail ()
  in
  Arg.conv (parse, Net.pp_delay_model)

let workload_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "saturated" ] -> Ok `Saturated_all
    | [ "saturated"; c ] -> (
      match int_of_string_opt c with
      | Some c -> Ok (`Saturated c)
      | None -> Error (`Msg "bad contender count"))
    | [ "poisson"; r ] -> (
      match float_of_string_opt r with
      | Some r -> Ok (`Poisson r)
      | None -> Error (`Msg "bad poisson rate"))
    | [ "open-loop"; ar ] -> (
      match String.split_on_char ',' ar with
      | [ a; r ] -> (
        match (int_of_string_opt a, float_of_string_opt r) with
        | Some active, Some rate -> Ok (`Open_loop (active, rate))
        | _ -> Error (`Msg "bad open-loop (expected ACTIVE,RATE)"))
      | _ -> Error (`Msg "bad open-loop (expected ACTIVE,RATE)"))
    | [ "burst" ] -> Ok `Burst_all
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad workload %S (expected saturated[:C] | poisson:RATE | \
               open-loop:ACTIVE,RATE | burst)"
              s))
  in
  let pp ppf = function
    | `Saturated_all -> Format.pp_print_string ppf "saturated"
    | `Saturated c -> Format.fprintf ppf "saturated:%d" c
    | `Poisson r -> Format.fprintf ppf "poisson:%g" r
    | `Open_loop (a, r) -> Format.fprintf ppf "open-loop:%d,%g" a r
    | `Burst_all -> Format.pp_print_string ppf "burst"
  in
  Arg.conv (parse, pp)

let kind_conv =
  let parse s = Result.map_error (fun e -> `Msg e) (B.parse_kind s) in
  Arg.conv (parse, B.pp_kind)

let crash_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ t; site ] -> (
      match (float_of_string_opt t, int_of_string_opt site) with
      | Some t, Some site -> Ok (t, site)
      | _ -> Error (`Msg "bad crash (expected TIME:SITE)"))
    | _ -> Error (`Msg "bad crash (expected TIME:SITE)")
  in
  let pp ppf (t, s) = Format.fprintf ppf "%g:%d" t s in
  Arg.conv (parse, pp)

let n_arg =
  Arg.(
    value & opt int 25
    & info [ "n"; "sites" ] ~docv:"N" ~doc:"Number of sites.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let execs_arg =
  Arg.(
    value & opt int 300
    & info [ "execs" ] ~docv:"COUNT" ~doc:"CS executions to simulate.")

let warmup_arg =
  Arg.(
    value & opt int 30
    & info [ "warmup" ] ~docv:"COUNT"
        ~doc:"Executions excluded from statistics.")

let cs_arg =
  Arg.(
    value & opt float 1.0
    & info [ "cs" ] ~docv:"E" ~doc:"CS execution time, in units of T.")

let delay_arg =
  Arg.(
    value
    & opt delay_conv (Net.Constant 1.0)
    & info [ "delay" ] ~docv:"MODEL"
        ~doc:
          "Message delay model: constant:D, uniform:LO,HI, exp:MEAN or \
           shifted:BASE,MEAN.")

let workload_arg =
  Arg.(
    value & opt workload_conv `Saturated_all
    & info [ "load" ] ~docv:"WORKLOAD"
        ~doc:
          "Workload: saturated[:CONTENDERS], poisson:RATE, \
           open-loop:ACTIVE,RATE (Poisson at the first ACTIVE sites only; \
           the huge-N workload) or burst.")

let quorum_arg =
  Arg.(
    value & opt kind_conv B.Grid
    & info [ "quorum" ] ~docv:"KIND"
        ~doc:
          "Quorum construction for quorum-based algorithms: grid, fpp, \
           tree, majority, hqc, grid-set:G, rst:G, star, all.")

let crashes_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "crash" ] ~docv:"TIME:SITE"
        ~doc:"Inject a fail-stop crash (repeatable).")

let detect_arg =
  Arg.(
    value & opt float 3.0
    & info [ "detect" ] ~docv:"DELAY"
        ~doc:"Failure detection latency (oracle detector).")

let detector_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "oracle" ] -> Ok `Oracle
    | [ "heartbeat" ] -> Ok (`Heartbeat Dmx_sim.Detector.default)
    | [ "heartbeat"; rest ] -> (
      match String.split_on_char ',' rest with
      | [ p; t ] -> (
        match (float_of_string_opt p, float_of_string_opt t) with
        | Some period, Some timeout ->
          Ok (`Heartbeat { Dmx_sim.Detector.period; timeout })
        | _ -> Error (`Msg "bad heartbeat parameters"))
      | _ -> Error (`Msg "bad heartbeat parameters"))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "bad detector %S (expected oracle | heartbeat[:PERIOD,TIMEOUT])"
              s))
  in
  let pp ppf = function
    | `Oracle -> Format.pp_print_string ppf "oracle"
    | `Heartbeat c -> Format.fprintf ppf "heartbeat:%a" Dmx_sim.Detector.pp_config c
  in
  Arg.conv (parse, pp)

let detector_arg =
  Arg.(
    value & opt detector_conv `Oracle
    & info [ "detector" ] ~docv:"KIND"
        ~doc:
          "Failure detector: oracle (perfect, latency from $(b,--detect)) or \
           heartbeat:PERIOD,TIMEOUT (unreliable, may falsely suspect).")

let loss_arg =
  Arg.(
    value & opt float 0.0
    & info [ "loss" ] ~docv:"P" ~doc:"Per-message loss probability in [0,1).")

let dup_arg =
  Arg.(
    value & opt float 0.0
    & info [ "dup" ] ~docv:"P"
        ~doc:"Per-message duplication probability in [0,1).")

let partition_conv =
  let parse s =
    let fail () =
      Error
        (`Msg
           (Printf.sprintf
              "bad partition %S (expected FROM:UNTIL:G1|G2, groups like \
               0,1|2,3; UNTIL may be inf)" s))
    in
    match String.split_on_char ':' s with
    | [ from_s; until_s; groups_s ] -> (
      match (float_of_string_opt from_s, float_of_string_opt until_s) with
      | Some from_t, Some until -> (
        try
          let groups =
            List.map
              (fun g ->
                List.map
                  (fun x ->
                    match int_of_string_opt (String.trim x) with
                    | Some v -> v
                    | None -> raise Exit)
                  (String.split_on_char ',' g))
              (String.split_on_char '|' groups_s)
          in
          Ok { Net.from_t; until; groups }
        with Exit -> fail ())
      | _ -> fail ())
    | _ -> fail ()
  in
  let pp ppf (p : Net.partition) =
    Format.fprintf ppf "%g:%g:%s" p.Net.from_t p.Net.until
      (String.concat "|"
         (List.map
            (fun g -> String.concat "," (List.map string_of_int g))
            p.Net.groups))
  in
  Arg.conv (parse, pp)

let partition_arg =
  Arg.(
    value & opt_all partition_conv []
    & info [ "partition" ] ~docv:"FROM:UNTIL:G1|G2"
        ~doc:
          "Partition the network between FROM and UNTIL into groups (sites \
           comma-separated, groups |-separated; unlisted sites form one \
           extra group; UNTIL may be inf). Times are simulated time, or \
           seconds after the workload starts on a live cluster. \
           Repeatable.")

let spike_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ f; u; k ] -> (
      match
        (float_of_string_opt f, float_of_string_opt u, float_of_string_opt k)
      with
      | Some from_t, Some until, Some extra -> Ok (from_t, until, extra)
      | _ -> Error (`Msg "bad spike (expected FROM:UNTIL:EXTRA)"))
    | _ -> Error (`Msg "bad spike (expected FROM:UNTIL:EXTRA)")
  in
  let pp ppf (f, u, k) = Format.fprintf ppf "%g:%g:%g" f u k in
  Arg.conv (parse, pp)

let spike_arg =
  Arg.(
    value & opt_all spike_conv []
    & info [ "spike" ] ~docv:"FROM:UNTIL:EXTRA"
        ~doc:
          "Add EXTRA seconds to the delay of every message sent between \
           FROM and UNTIL (times as for $(b,--partition)). Repeatable.")

let csv_arg =
  Arg.(value & flag & info [ "csv" ] ~doc:"Print a CSV record instead of text.")

let make_cfg ?(faults = Net.no_faults) ?(det = `Oracle) n seed execs warmup cs
    delay workload crashes detect =
  let wl =
    match workload with
    | `Saturated_all -> W.Saturated { contenders = n }
    | `Saturated c -> W.Saturated { contenders = min c n }
    | `Poisson rate_per_site -> W.Poisson { rate_per_site }
    | `Open_loop (active, rate_per_site) ->
      W.Open_loop { active = min active n; rate_per_site }
    | `Burst_all -> W.Burst { requesters = List.init n Fun.id; at = 0.0 }
  in
  {
    (E.default ~n) with
    seed;
    max_executions = execs;
    warmup;
    cs_duration = cs;
    delay;
    workload = wl;
    crashes;
    detector =
      (match det with
      | `Oracle -> E.Oracle detect
      | `Heartbeat c -> E.Heartbeat c);
    faults;
    max_time = 1.0e9;
  }

(* Reliability/detector wiring lives in [Runner.of_algo]; this shim only
   translates the CLI's polymorphic-variant detector into the engine's. *)
let runner_of_algo ?(faults = Net.no_faults) ?(det = `Oracle) algo kind ~n =
  let detector =
    match det with
    | `Oracle -> E.Oracle 3.0
    | `Heartbeat c -> E.Heartbeat c
  in
  R.of_algo ~faults ~detector ~kind algo ~n

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:
          "Verify every run with the trace oracle, fed as the run records \
           (mutex, quorum consistency, permission conservation, FIFO); exit \
           nonzero on rejection.")

let jobs_arg =
  Arg.(
    value
    & opt int (Dmx_sim.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains for independent simulation runs (default: \
           recommended domain count). Results are collected by job index, \
           so output is bit-identical at any value; see PERFORMANCE.md.")

let exit_checked code =
  if Atomic.get R.check_failures > 0 then exit 3 else if code <> 0 then exit code

let csv_header =
  "algorithm,variant,n,executions,messages,msgs_per_cs,sync_mean,sync_p99,\
   resp_mean,resp_p99,throughput,violations,deadlocked,pending,retx,\
   unavail_windows,unavail_time"

let csv_line (r : E.report) variant =
  let s = Dmx_sim.Stats.Summary.mean in
  let p x = Dmx_sim.Stats.Summary.percentile x 99.0 in
  Printf.sprintf "%s,%s,%d,%d,%d,%.3f,%.4f,%.4f,%.4f,%.4f,%.6f,%d,%b,%d,%d,%d,%.4f"
    r.E.protocol variant r.E.n r.E.executions r.E.total_messages
    r.E.messages_per_cs (s r.E.sync_delay) (p r.E.sync_delay)
    (s r.E.response_time) (p r.E.response_time) r.E.throughput r.E.violations
    r.E.deadlocked r.E.pending_at_end r.E.retransmissions
    (Dmx_sim.Stats.Summary.count r.E.unavailability)
    (Dmx_sim.Stats.Summary.total r.E.unavailability)

(* ---- run ---- *)

let run_cmd =
  let algo_arg =
    Arg.(
      value & opt string "delay-optimal"
      & info [ "algo"; "a" ] ~docv:"ALGO"
          ~doc:
            "Algorithm: delay-optimal, ft-delay-optimal, maekawa, lamport, \
             ricart-agrawala, singhal-dynamic, suzuki-kasami, \
             singhal-heuristic, raymond, raymond-chain.")
  in
  let lazy_arg =
    Arg.(
      value & flag
      & info [ "lazy-coteries" ]
          ~doc:
            "Generate quorums on demand from the construction's structure \
             and instantiate sites lazily: memory follows the sites that \
             act, not N, so universes of 10^6 sites run in-process. \
             delay-optimal only; pair with --load open-loop:ACTIVE,RATE or \
             --load saturated:C.")
  in
  let action algo kind n seed execs warmup cs delay workload crashes detect det
      loss dup partitions spikes csv check lazy_coteries =
    if check then Atomic.set R.always_check true;
    let faults =
      {
        Net.no_faults with
        Net.loss;
        duplication = dup;
        partitions;
        delay_spikes = spikes;
      }
    in
    let finish (r : E.report) variant =
      if csv then begin
        print_endline csv_header;
        print_endline (csv_line r variant)
      end
      else Format.printf "%a@." E.pp_report r;
      exit_checked (if r.E.violations > 0 || r.E.deadlocked then 2 else 0)
    in
    if lazy_coteries then begin
      if algo <> "delay-optimal" then begin
        prerr_endline "--lazy-coteries supports only --algo delay-optimal";
        exit 1
      end;
      if check then begin
        prerr_endline
          "--lazy-coteries bypasses the trace oracle; drop --check";
        exit 1
      end;
      if not (B.supports kind ~n) then begin
        Printf.eprintf "%s does not support n=%d\n" (B.kind_name kind) n;
        exit 1
      end;
      let cfg =
        {
          (make_cfg ~faults ~det n seed execs warmup cs delay workload crashes
             detect)
          with
          E.lazy_sites = true;
        }
      in
      let module M = E.Make (Dmx_core.Delay_optimal) in
      let r =
        M.run cfg
          (Dmx_core.Delay_optimal.config_of_assignment (B.assignment kind ~n))
      in
      finish r (B.kind_name kind)
    end
    else
      match runner_of_algo ~faults ~det algo kind ~n with
      | Error e ->
        prerr_endline e;
        exit 1
      | Ok runner ->
        let cfg =
          make_cfg ~faults ~det n seed execs warmup cs delay workload crashes
            detect
        in
        finish (R.run_reporting runner cfg) runner.R.variant
  in
  let term =
    Term.(
      const action $ algo_arg $ quorum_arg $ n_arg $ seed_arg $ execs_arg
      $ warmup_arg $ cs_arg $ delay_arg $ workload_arg $ crashes_arg
      $ detect_arg $ detector_arg $ loss_arg $ dup_arg $ partition_arg
      $ spike_arg $ csv_arg $ check_arg $ lazy_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one mutual exclusion algorithm.")
    term

(* ---- compare ---- *)

let compare_cmd =
  let action n seed execs warmup cs delay workload csv check =
    if check then Atomic.set R.always_check true;
    let cfg = make_cfg n seed execs warmup cs delay workload [] 3.0 in
    let runners = R.all ~n in
    let bad = ref 0 in
    let note (r : E.report) =
      if r.E.violations > 0 || r.E.deadlocked then incr bad;
      r
    in
    if csv then begin
      print_endline csv_header;
      List.iter
        (fun runner ->
          print_endline (csv_line (note (runner.R.run cfg)) runner.R.variant))
        runners
    end
    else begin
      Format.printf "n=%d seed=%d delay=%a cs=%g load=%a@." n seed
        Net.pp_delay_model delay cs W.pp cfg.E.workload;
      Format.printf "%-16s %10s %10s %10s %12s %6s@." "algorithm" "msgs/CS"
        "sync" "resp" "throughput/T" "viol";
      List.iter
        (fun runner ->
          let r = note (runner.R.run cfg) in
          Format.printf "%-16s %10.1f %10.2f %10.1f %12.3f %6d%s@."
            r.E.protocol r.E.messages_per_cs
            (Dmx_sim.Stats.Summary.mean r.E.sync_delay)
            (Dmx_sim.Stats.Summary.mean r.E.response_time)
            (r.E.throughput *. r.E.mean_delay)
            r.E.violations
            (if r.E.deadlocked then " DEADLOCK" else ""))
        runners
    end;
    exit_checked (if !bad > 0 then 2 else 0)
  in
  let term =
    Term.(
      const action $ n_arg $ seed_arg $ execs_arg $ warmup_arg $ cs_arg
      $ delay_arg $ workload_arg $ csv_arg $ check_arg)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every algorithm under one scenario and tabulate.")
    term

(* ---- quorums ---- *)

let quorums_cmd =
  let show_arg =
    Arg.(value & flag & info [ "show" ] ~doc:"Print every request set.")
  in
  let action kind n show =
    if not (B.supports kind ~n) then begin
      Printf.printf "%s does not support n=%d\n" (B.kind_name kind) n;
      exit 1
    end;
    let rs = B.req_sets kind ~n in
    let st = B.size_stats rs in
    (match B.validate ~n rs with
    | Ok () -> Printf.printf "%s over %d sites: VALID coterie assignment\n" (B.kind_name kind) n
    | Error e ->
      Printf.printf "INVALID: %s\n" e;
      exit 2);
    Printf.printf "quorum size: min=%d max=%d mean=%.2f\n" st.B.k_min st.B.k_max
      st.B.k_mean;
    Printf.printf "minimal (no quorum contains another): %b\n" (B.minimal ~n rs);
    if show then
      Array.iteri
        (fun i q ->
          Printf.printf "  req_set(%d) = {%s}\n" i
            (String.concat "," (List.map string_of_int q)))
        rs
  in
  let term = Term.(const action $ quorum_arg $ n_arg $ show_arg) in
  Cmd.v
    (Cmd.info "quorums" ~doc:"Build, validate and display a quorum construction.")
    term

(* ---- avail ---- *)

let avail_cmd =
  let trials_arg =
    Arg.(
      value & opt int 20_000
      & info [ "trials" ] ~docv:"T" ~doc:"Monte-Carlo trials.")
  in
  let action kind n trials =
    if not (B.supports kind ~n) then begin
      Printf.printf "%s does not support n=%d\n" (B.kind_name kind) n;
      exit 1
    end;
    Printf.printf "availability of %s over %d sites\n" (B.kind_name kind) n;
    Printf.printf "%8s %12s\n" "p(up)" "availability";
    List.iter
      (fun p ->
        Printf.printf "%8.2f %12.4f\n" p
          (Dmx_quorum.Availability.estimate ~trials kind ~n ~p_up:p))
      [ 0.5; 0.6; 0.7; 0.8; 0.9; 0.95; 0.99; 1.0 ]
  in
  let term = Term.(const action $ quorum_arg $ n_arg $ trials_arg) in
  Cmd.v
    (Cmd.info "avail" ~doc:"Availability sweep for a quorum construction.")
    term

(* ---- sweep ---- *)

let sweep_cmd =
  let axis_conv =
    let parse = function
      | "n" -> Ok `N
      | "rate" -> Ok `Rate
      | "cs" -> Ok `Cs
      | s -> Error (`Msg (Printf.sprintf "bad axis %S (expected n|rate|cs)" s))
    in
    let pp ppf a =
      Format.pp_print_string ppf
        (match a with `N -> "n" | `Rate -> "rate" | `Cs -> "cs")
    in
    Arg.conv (parse, pp)
  in
  let axis_arg =
    Arg.(
      value & opt axis_conv `N
      & info [ "axis" ] ~docv:"AXIS"
          ~doc:
            "Swept parameter: n (sites), rate (poisson load) or cs (CS \
             duration).")
  in
  let values_arg =
    Arg.(
      value
      & opt (list ~sep:',' float) [ 9.; 16.; 25.; 49. ]
      & info [ "values" ] ~docv:"V1,V2,..." ~doc:"Values to sweep.")
  in
  let algos_arg =
    Arg.(
      value
      & opt (list ~sep:',' string) [ "delay-optimal"; "maekawa" ]
      & info [ "algos" ] ~docv:"A1,A2,..." ~doc:"Algorithms to include.")
  in
  let action axis values algos kind n seed execs warmup cs delay workload jobs
      =
    print_endline ("axis,value," ^ csv_header);
    let axis_name =
      match axis with `N -> "n" | `Rate -> "rate" | `Cs -> "cs"
    in
    (* The (value x algo) grid is a fixed job list of independent seeded
       runs: fan out on domains, print in grid order afterwards — the CSV
       is byte-identical at any job count. *)
    let grid =
      List.concat_map (fun v -> List.map (fun algo -> (v, algo)) algos) values
    in
    let results =
      Dmx_sim.Pool.map ~jobs
        (fun (v, algo) ->
          let n, cs, workload =
            match axis with
            | `N -> (int_of_float v, cs, workload)
            | `Rate -> (n, cs, `Poisson v)
            | `Cs -> (n, v, workload)
          in
          match runner_of_algo algo kind ~n with
          | Error e -> Error e
          | Ok runner ->
            let cfg = make_cfg n seed execs warmup cs delay workload [] 3.0 in
            let r = runner.R.run cfg in
            Ok
              ( Printf.sprintf "%s,%g,%s" axis_name v
                  (csv_line r runner.R.variant),
                r.E.violations > 0 || r.E.deadlocked ))
        grid
    in
    let bad = ref 0 in
    List.iter
      (function
        | Error e ->
          prerr_endline e;
          exit 1
        | Ok (line, b) ->
          if b then incr bad;
          print_endline line)
      results;
    exit_checked (if !bad > 0 then 2 else 0)
  in
  let term =
    Term.(
      const action $ axis_arg $ values_arg $ algos_arg $ quorum_arg $ n_arg
      $ seed_arg $ execs_arg $ warmup_arg $ cs_arg $ delay_arg $ workload_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep one parameter across algorithms and print CSV (for plotting).")
    term

(* ---- trace ---- *)

let trace_cmd =
  let limit_arg =
    Arg.(
      value & opt int 200
      & info [ "limit" ] ~docv:"LINES" ~doc:"Maximum trace lines to print.")
  in
  let action algo kind n seed execs cs delay workload limit =
    match runner_of_algo algo kind ~n with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok _ ->
      (* tracing needs the concrete engine; handle the common cases *)
      let cfg =
        { (make_cfg n seed execs 0 cs delay workload [] 3.0) with trace = true }
      in
      let sink = Dmx_sim.Trace.create ~enabled:true () in
      let report =
        match algo with
        | "maekawa" ->
          let module M = E.Make (Dmx_baselines.Maekawa_me) in
          M.run ~trace_sink:sink cfg
            { Dmx_baselines.Maekawa_me.req_sets = B.req_sets kind ~n }
        | _ ->
          let module M = E.Make (Dmx_core.Delay_optimal) in
          M.run ~trace_sink:sink cfg
            (Dmx_core.Delay_optimal.config (B.req_sets kind ~n))
      in
      let entries = Dmx_sim.Trace.entries sink in
      List.iteri
        (fun i e ->
          if i < limit then
            Format.printf "%a@." Dmx_sim.Trace.pp_entry e)
        entries;
      if List.length entries > limit then
        Printf.printf "... (%d more lines)\n" (List.length entries - limit);
      print_string (Dmx_sim.Trace.timeline sink ~n);
      Format.printf "---@.%a@." E.pp_report report
  in
  let term =
    Term.(
      const action $ Arg.(value & opt string "delay-optimal" & info [ "algo"; "a" ])
      $ quorum_arg $ n_arg $ seed_arg
      $ Arg.(value & opt int 10 & info [ "execs" ])
      $ cs_arg $ delay_arg $ workload_arg $ limit_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Print an annotated message trace of a short run (delay-optimal or \
          maekawa).")
    term

(* ---- replay ---- *)

let replay_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:
            "One or more .dmxrepro schedules, e.g. shrunk by the fuzz \
             harness. Several files replay in parallel (see $(b,--jobs)); \
             output stays in argument order.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet"; "q" ] ~doc:"Only print the oracle verdict.")
  in
  let tail_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tail" ] ~docv:"N"
          ~doc:
            "Print the last $(docv) trace entries (0 for all) — the usual \
             first question about a reproducer is what it was doing when it \
             stopped.")
  in
  (* Replays one file into strings (stdout text, stderr text, exit code)
     so several files can run on worker domains without interleaving. *)
  let replay_one ~quiet ~tail file =
    let buf = Buffer.create 1024 in
    let ppf = Format.formatter_of_buffer buf in
    let code =
      match Dmx_sim.Oracle.replay_file file with
      | Error e -> Error e
      | Ok sched -> (
        match R.run_schedule sched with
        | Error e -> Error e
        | Ok (report, trace) ->
          if not quiet then begin
            Buffer.add_string buf (Dmx_sim.Schedule.to_string sched);
            Format.fprintf ppf "---@.%a@." E.pp_report report
          end;
          let verdict =
            Dmx_sim.Oracle.check_trace
              (R.oracle_config (Dmx_sim.Schedule.to_engine_config sched))
              trace
          in
          (match tail with
          | Some k ->
            let total = Dmx_sim.Trace.length trace in
            let drop = if k <= 0 then 0 else max 0 (total - k) in
            if drop > 0 then
              Format.fprintf ppf "... (%d earlier entries)@." drop;
            let i = ref 0 in
            Dmx_sim.Trace.iter
              (fun ~time ~site kind ->
                if !i >= drop then
                  Format.fprintf ppf "%a@." Dmx_sim.Trace.pp_entry
                    { Dmx_sim.Trace.time; site; kind };
                incr i)
              trace
          | None -> ());
          Format.fprintf ppf "%a@." Dmx_sim.Oracle.pp_verdict verdict;
          if
            report.E.violations > 0 || report.E.deadlocked
            || not (Dmx_sim.Oracle.ok verdict)
          then Ok 2
          else Ok 0)
    in
    Format.pp_print_flush ppf ();
    (Buffer.contents buf, code)
  in
  let action files quiet tail jobs =
    let results = Dmx_sim.Pool.map ~jobs (replay_one ~quiet ~tail) files in
    let many = List.length files > 1 in
    let worst = ref 0 in
    List.iter2
      (fun file (out, code) ->
        if many then Printf.printf "=== %s ===\n" file;
        print_string out;
        match code with
        | Error e ->
          prerr_endline e;
          worst := max !worst 1
        | Ok c -> worst := max !worst c)
      files results;
    if !worst <> 0 then exit !worst
  in
  let term = Term.(const action $ files_arg $ quiet_arg $ tail_arg $ jobs_arg) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a $(b,.dmxrepro) reproducer bit-for-bit and re-check it \
          with the trace oracle (exit 2 when the violation reproduces).")
    term

(* ---- bench ---- *)

let bench_cmd =
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Smaller execution quotas (smoke mode).")
  in
  let exps_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Experiments to run (default: the full suite). List them with \
             $(b,--list).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the registered experiments and exit.")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Re-check the measured tables against the paper's Section 5 \
             closed forms (Table 1 message bands, sync delay T vs 2T, \
             throughput bounds, M/M/1 waiting time); exit 2 on any band \
             violation. Covers the T1/E1/E3/E4/E6/E11/A3 experiments.")
  in
  let validate_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "validate-out" ] ~docv:"FILE"
          ~doc:"Also write the validation verdicts to $(docv) (implies \
                $(b,--validate)).")
  in
  let action quick check jobs validate validate_out list exps =
    if list then Dmx_bench.Suite.print_experiments ()
    else
      match Dmx_bench.Suite.resolve exps with
      | Error unknown ->
        Printf.eprintf "unknown experiment(s): %s\n"
          (String.concat ", " unknown);
        exit 1
      | Ok to_run ->
        exit_checked
          (Dmx_bench.Suite.run ~jobs
             ~validate:(validate || validate_out <> None)
             ?validate_out ~quick ~check to_run)
  in
  let term =
    Term.(
      const action $ quick_arg $ check_arg $ jobs_arg $ validate_arg
      $ validate_out_arg $ list_arg $ exps_arg)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the paper-reproduction experiment suite (tables, figures, \
          model check, live cluster and lock-service smokes).")
    term

(* ---- validate: re-check past output against the analytic model ---- *)

let validate_cmd =
  let module Mdl = Dmx_model.Model in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"A CSV report from $(b,run)/$(b,compare)/$(b,sweep) $(b,--csv).")
  in
  let t_arg =
    Arg.(
      value & opt float 1.0
      & info [ "t" ] ~docv:"T"
          ~doc:"Mean message delay T the CSV rows were measured at.")
  in
  let load_conv =
    let parse s =
      match String.split_on_char ':' s with
      | [ "light" ] -> Ok Mdl.Light
      | [ "heavy" ] -> Ok Mdl.Heavy
      | [ "poisson"; r ] -> (
        match float_of_string_opt r with
        | Some r when r > 0.0 -> Ok (Mdl.Poisson r)
        | _ -> Error (`Msg "bad poisson rate"))
      | _ ->
        Error
          (`Msg
             (Printf.sprintf "bad load %S (expected light | heavy | poisson:RATE)" s))
    in
    let pp ppf = function
      | Mdl.Light -> Format.pp_print_string ppf "light"
      | Mdl.Heavy -> Format.pp_print_string ppf "heavy"
      | Mdl.Poisson r -> Format.fprintf ppf "poisson:%g" r
    in
    Arg.conv (parse, pp)
  in
  let load_arg =
    Arg.(
      value & opt load_conv Mdl.Heavy
      & info [ "load" ] ~docv:"LOAD"
          ~doc:
            "Load regime the CSV rows were measured under: light, heavy \
             (default) or poisson:RATE.")
  in
  let random_arg =
    Arg.(
      value & flag
      & info [ "random-delays" ]
          ~doc:
            "The rows were measured under a random delay model (mean T), \
             not constant delays; widens the sync-delay bands.")
  in
  let action file e t load random =
    let contents = In_channel.with_open_bin file In_channel.input_all in
    let bad fmt = Printf.ksprintf (fun m -> Printf.eprintf "%s: %s\n" file m; exit 1) fmt in
    let lines =
      List.filteri (fun _ l -> String.trim l <> "")
        (String.split_on_char '\n' contents)
    in
    match lines with
    | [] -> bad "empty file"
    | header :: rows ->
      let sweep = String.starts_with ~prefix:"axis,value," header in
      let expected = if sweep then "axis,value," ^ csv_header else csv_header in
      if String.trim header <> expected then
        bad "unrecognized CSV header (expected the %s output of run/compare/sweep --csv)"
          (if sweep then "sweep" else "run");
      let shape = if random then Mdl.Random else Mdl.Constant in
      let verdicts =
        List.concat_map
          (fun (lineno, line) ->
            let cells = String.split_on_char ',' line in
            let cells =
              if sweep then match cells with _ :: _ :: r -> r | _ -> []
              else cells
            in
            match cells with
            | algorithm :: variant :: n :: _execs :: _msgs :: msgs :: sync
              :: _sync_p99 :: resp :: _resp_p99 :: thr :: _ ->
              let num what s =
                match float_of_string_opt s with
                | Some v -> v
                | None -> bad "line %d: bad %s %S" lineno what s
              in
              let n =
                match int_of_string_opt n with
                | Some n when n > 0 -> n
                | _ -> bad "line %d: bad site count %S" lineno n
              in
              let kind =
                match B.parse_kind variant with Ok k -> Some k | Error _ -> None
              in
              let params =
                Mdl.params ?kind ~algorithm ~n ~e ~t ~load ~delay_shape:shape ()
              in
              let m =
                {
                  Mdl.source = Printf.sprintf "%s:%d %s" file lineno algorithm;
                  params;
                  msgs_per_cs = Some (num "msgs_per_cs" msgs);
                  (* same rules as Model.of_report: light load has too few
                     contended handoffs to average sync over; heavy-load
                     response is queueing-dominated and unpinned by §5 *)
                  sync_delay =
                    (match load with
                    | Mdl.Light -> None
                    | _ -> Some (num "sync_mean" sync));
                  response_time =
                    (match load with
                    | Mdl.Heavy -> None
                    | _ -> Some (num "resp_mean" resp));
                  throughput =
                    (match load with
                    | Mdl.Heavy -> Some (num "throughput" thr)
                    | _ -> None);
                }
              in
              Mdl.check_measurement m
            | _ -> bad "line %d: too few CSV fields" lineno)
          (List.mapi (fun i l -> (i + 2, l)) rows)
      in
      List.iter
        (fun (v : Mdl.verdict) ->
          Printf.printf "%s %s\n" (if v.Mdl.ok then "pass" else "FAIL")
            v.Mdl.message)
        verdicts;
      let failed = List.length (List.filter (fun v -> not v.Mdl.ok) verdicts) in
      Printf.printf "model verdicts: %d checked, %d failed\n"
        (List.length verdicts) failed;
      if failed > 0 then exit 2
  in
  let term =
    Term.(const action $ file_arg $ cs_arg $ t_arg $ load_arg $ random_arg)
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Re-check measured output against the paper's Section 5 closed \
          forms: a $(b,--csv) report is checked row by row against the \
          analytic message/delay/throughput bands (tell it the scenario via \
          $(b,--cs), $(b,--t), $(b,--load), $(b,--random-delays)). Exit 1 \
          on unreadable input, 2 on any violation.")
    term

(* ---- cluster / node: the real networked runtime ---- *)

(* SITE@TIME for the kill/restart schedule, e.g. 1@2s (the trailing s is
   optional); returned as (time, site) to match the engine's crash lists. *)
let at_conv =
  let parse s =
    let fail () = Error (`Msg (Printf.sprintf "bad schedule entry %S (expected SITE@TIMEs, e.g. 1@2s)" s)) in
    match String.split_on_char '@' s with
    | [ site; time ] -> (
      let time =
        if String.length time > 0 && time.[String.length time - 1] = 's' then
          String.sub time 0 (String.length time - 1)
        else time
      in
      match (int_of_string_opt site, float_of_string_opt time) with
      | Some site, Some t when t >= 0.0 -> Ok (t, site)
      | _ -> fail ())
    | _ -> fail ()
  in
  let pp ppf (t, s) = Format.fprintf ppf "%d@%gs" s t in
  Arg.conv (parse, pp)

let proto_arg =
  Arg.(
    value & opt string "ft-delay-optimal"
    & info [ "protocol"; "p" ] ~docv:"PROTO"
        ~doc:"Protocol to run: delay-optimal or ft-delay-optimal.")

let hb_arg =
  Arg.(
    value & opt float 0.1
    & info [ "hb" ] ~docv:"SECONDS" ~doc:"Heartbeat period.")

let hbto_arg =
  Arg.(
    value & opt float 1.0
    & info [ "hb-timeout" ] ~docv:"SECONDS"
        ~doc:"Heartbeat silence before a peer is suspected.")

let rto_arg =
  Arg.(
    value & opt float 0.25
    & info [ "rto" ] ~docv:"SECONDS"
        ~doc:"Reliability-layer base retransmission timeout.")

let cluster_cmd =
  let cn_arg =
    Arg.(
      value & opt int 5
      & info [ "n"; "sites" ] ~docv:"N" ~doc:"Number of node processes.")
  in
  let transport_arg =
    Arg.(
      value & opt string "tcp"
      & info [ "transport" ] ~docv:"KIND"
          ~doc:
            "Transport between nodes: tcp (streams, lossless) or udp \
             (datagrams, genuinely lossy).")
  in
  let reorder_arg =
    Arg.(
      value & opt float 0.0
      & info [ "reorder" ] ~docv:"P"
          ~doc:
            "Per-frame probability of a bounded holdback (chaos shim), in \
             [0,1).")
  in
  let rounds_arg =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"COUNT"
          ~doc:"CS entries each site must complete.")
  in
  let ccs_arg =
    Arg.(
      value & opt float 0.001
      & info [ "cs" ] ~docv:"SECONDS" ~doc:"Wall-clock time inside the CS.")
  in
  let kill_arg =
    Arg.(
      value & opt_all at_conv []
      & info [ "kill" ] ~docv:"SITE@TIME"
          ~doc:
            "SIGKILL a node this long after the workload starts \
             (repeatable), e.g. $(b,--kill 1\\@2s); its site's client \
             re-homes to a live node.")
  in
  let restart_arg =
    Arg.(
      value & opt_all at_conv []
      & info [ "restart" ] ~docv:"SITE@TIME"
          ~doc:
            "Respawn a killed node with fresh state (repeatable), e.g. \
             $(b,--restart 1\\@4s); it rejoins as an arbiter.")
  in
  let log_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "log-dir" ] ~docv:"DIR"
          ~doc:"Write per-node stderr logs into $(docv).")
  in
  let trace_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Write the merged, time-sorted trace to $(docv).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 180.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Hard wall-clock bound on the whole run.")
  in
  let metrics_arg =
    Arg.(
      value & opt int 0
      & info [ "metrics-base-port" ] ~docv:"PORT"
          ~doc:
            "Each node serves its metrics registry over HTTP on \
             $(docv)+site (Prometheus text at /metrics, JSON at \
             /metrics.json); 0 disables.")
  in
  let action n protocol quorum rounds cs seed kills restarts log_dir trace_out
      timeout hb hbto rto transport loss dup reorder partitions spikes
      metrics_base_port csv =
    let chaos =
      {
        Net.no_faults with
        Net.loss;
        duplication = dup;
        reorder;
        partitions;
        delay_spikes = spikes;
      }
    in
    let cfg =
      {
        Dmx_service.Cluster.n;
        protocol;
        quorum;
        rounds;
        cs_duration = cs;
        seed;
        kills;
        restarts;
        log_dir;
        timeout;
        detector = { Dmx_sim.Detector.period = hb; timeout = hbto };
        rto;
        transport;
        chaos;
        hello_timeout = 10.0;
        ports = None;
        metrics_base_port;
      }
    in
    match Dmx_service.Cluster.run cfg with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok o ->
      (match trace_out with
      | Some file ->
        let oc = open_out file in
        let ppf = Format.formatter_of_out_channel oc in
        List.iter
          (fun e -> Format.fprintf ppf "%a@." Dmx_sim.Trace.pp_entry e)
          o.Dmx_service.Cluster.entries;
        Format.pp_print_flush ppf ();
        close_out oc
      | None -> ());
      let r = o.Dmx_service.Cluster.report in
      if csv then begin
        print_endline csv_header;
        print_endline (csv_line r "cluster")
      end
      else Format.printf "%a@." Dmx_service.Cluster.pp_outcome o;
      let ok =
        r.E.violations = 0 && Dmx_sim.Oracle.ok o.Dmx_service.Cluster.verdict
      in
      exit (if ok then 0 else 2)
  in
  let term =
    Term.(
      const action $ cn_arg $ proto_arg $ quorum_arg $ rounds_arg $ ccs_arg
      $ seed_arg $ kill_arg $ restart_arg $ log_dir_arg $ trace_out_arg
      $ timeout_arg $ hb_arg $ hbto_arg $ rto_arg $ transport_arg $ loss_arg
      $ dup_arg $ reorder_arg $ partition_arg $ spike_arg $ metrics_arg
      $ csv_arg)
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:
         "Run a real multi-process cluster on localhost (TCP streams or \
          UDP datagrams) as a one-shard lock service: spawn N daemons, \
          give each site a client that enters the CS $(b,--rounds) times, \
          optionally kill/restart sites and inject seeded chaos \
          ($(b,--loss), $(b,--dup), $(b,--reorder), $(b,--partition), \
          $(b,--spike)) mid-run, then merge the live traces and check \
          them with the oracle (exit 2 on any violation).")
    term

(* ---- swarm: the sharded lock service ---- *)

let swarm_cmd =
  let sn_arg =
    Arg.(
      value & opt int 5
      & info [ "n"; "sites" ] ~docv:"N" ~doc:"Number of service nodes.")
  in
  let clients_arg =
    Arg.(
      value & opt int 64
      & info [ "clients"; "c" ] ~docv:"COUNT"
          ~doc:"Closed-loop client population.")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"COUNT"
          ~doc:
            "Independent protocol instances the lock namespace is hashed \
             across.")
  in
  let locks_arg =
    Arg.(
      value & opt int 0
      & info [ "locks" ] ~docv:"COUNT"
          ~doc:"Distinct lock names (0 = one per client).")
  in
  let srounds_arg =
    Arg.(
      value & opt int 3
      & info [ "rounds" ] ~docv:"COUNT"
          ~doc:"Acquire/release cycles each client completes.")
  in
  let think_arg =
    Arg.(
      value & opt float 0.05
      & info [ "think" ] ~docv:"SECONDS"
          ~doc:"Mean think time between a client's rounds (exponential).")
  in
  let hold_arg =
    Arg.(
      value & opt float 0.002
      & info [ "hold" ] ~docv:"SECONDS"
          ~doc:"How long a client keeps a granted lock before releasing.")
  in
  let lease_arg =
    Arg.(
      value & opt float 2.0
      & info [ "lease" ] ~docv:"SECONDS"
          ~doc:
            "Lease duration: an unrenewed hold is expired this long after \
             its grant (or last renewal).")
  in
  let batch_arg =
    Arg.(
      value & opt int 8
      & info [ "max-batch" ] ~docv:"COUNT"
          ~doc:"Leases served per protocol critical-section tenure.")
  in
  let abandon_arg =
    Arg.(
      value & opt float 0.0
      & info [ "abandon" ] ~docv:"P"
          ~doc:
            "Probability a granted client vanishes without releasing, \
             leaving cleanup to lease expiry.")
  in
  let kill_arg =
    Arg.(
      value & opt_all at_conv []
      & info [ "kill" ] ~docv:"NODE@TIME"
          ~doc:
            "SIGKILL a service node this long after the swarm starts \
             (repeatable); its sessions re-home to live nodes.")
  in
  let restart_arg =
    Arg.(
      value & opt_all at_conv []
      & info [ "restart" ] ~docv:"NODE@TIME"
          ~doc:"Respawn a killed node with fresh state (repeatable).")
  in
  let log_dir_arg =
    Arg.(
      value & opt (some string) None
      & info [ "log-dir" ] ~docv:"DIR"
          ~doc:"Write per-node stderr logs into $(docv).")
  in
  let timeout_arg =
    Arg.(
      value & opt float 120.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Hard bound on the whole run (wall clock, or virtual time \
                with $(b,--sim)).")
  in
  let transport_arg =
    Arg.(
      value & opt string "tcp"
      & info [ "transport" ] ~docv:"KIND"
          ~doc:"Transport between processes: tcp or udp.")
  in
  let sim_arg =
    Arg.(
      value & flag
      & info [ "sim" ]
          ~doc:
            "Run the deterministic virtual-time simulator instead of live \
             processes: same host logic, same client machines, seeded link \
             latencies — identical output for identical seeds.")
  in
  let latency_arg =
    Arg.(
      value & opt float 0.001
      & info [ "latency" ] ~docv:"SECONDS"
          ~doc:"Mean one-way link latency ($(b,--sim) only).")
  in
  let detect_delay_arg =
    Arg.(
      value & opt float 0.05
      & info [ "detect-delay" ] ~docv:"SECONDS"
          ~doc:"Peer failure-notification lag ($(b,--sim) only).")
  in
  let reorder_arg =
    Arg.(
      value & opt float 0.0
      & info [ "reorder" ] ~docv:"P"
          ~doc:
            "Per-frame probability of a bounded holdback (chaos shim, live \
             runs), in [0,1).")
  in
  let metrics_arg =
    Arg.(
      value & opt int 0
      & info [ "metrics-base-port" ] ~docv:"PORT"
          ~doc:
            "Each daemon serves its metrics registry over HTTP on \
             $(docv)+site (live runs only); 0 disables.")
  in
  let metrics_out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Write the run's merged metrics snapshot (every node's final \
             registry plus the driver's own acquire-latency histograms) \
             as dmx-metrics/1 JSON to $(docv). Works for both live and \
             $(b,--sim) runs; under $(b,--sim) the file is a pure \
             function of the seed.")
  in
  let action n clients shards locks rounds think hold lease max_batch abandon
      protocol quorum seed kills restarts log_dir timeout hb hbto rto
      transport loss dup reorder sim latency detect_delay metrics_base_port
      metrics_out csv =
    let finish (o : Dmx_service.Swarm.outcome) =
      (match metrics_out with
      | Some file ->
        let snap =
          Dmx_obs.Snapshot.merge_all
            [ Dmx_service.Swarm.merged_snapshot o; o.driver_snapshot ]
        in
        let oc = open_out file in
        output_string oc (Dmx_obs.Export.json snap);
        close_out oc
      | None -> ());
      if csv then begin
        print_endline "shard,acquires,grants,expiries,p50_ms,p95_ms,p99_ms,ok";
        Array.iter
          (fun (s : Dmx_service.Swarm.shard_outcome) ->
            let p q =
              1000.0 *. Dmx_sim.Stats.Summary.percentile s.latency q
            in
            Printf.printf "%d,%d,%d,%d,%.3f,%.3f,%.3f,%b\n" s.shard
              s.acquires s.grants s.expiries (p 50.0) (p 95.0) (p 99.0)
              (Dmx_service.Swarm.shard_ok s))
          o.per_shard
      end
      else Format.printf "%a@." Dmx_service.Swarm.pp_outcome o;
      exit (if Dmx_service.Swarm.ok o then 0 else 2)
    in
    (if sim then
       match
         List.find_opt
           (fun (_, p) -> p <> 0.0)
           [ ("--loss", loss); ("--dup", dup); ("--reorder", reorder) ]
       with
       | Some (flag, _) ->
         Printf.eprintf
           "swarm --sim injects no faults; %s applies to live runs only\n" flag;
         exit 1
       | None -> ());
    let result =
      if sim then
        Dmx_service.Sim_swarm.run_named
          {
            Dmx_service.Sim_swarm.n;
            shards;
            clients;
            locks;
            rounds;
            think;
            hold;
            lease;
            max_batch;
            abandon;
            protocol;
            quorum;
            seed;
            kills;
            restarts;
            latency;
            detect_delay;
            rto;
            max_time = timeout;
          }
      else
        Dmx_service.Swarm.run
          {
            Dmx_service.Swarm.n;
            shards;
            clients;
            locks;
            rounds;
            think;
            hold;
            lease;
            max_batch;
            abandon;
            protocol;
            quorum;
            seed;
            kills;
            restarts;
            log_dir;
            timeout;
            detector = { Dmx_sim.Detector.period = hb; timeout = hbto };
            rto;
            transport;
            chaos = { Net.no_faults with Net.loss; duplication = dup; reorder };
            hello_timeout = 10.0;
            ports = None;
            metrics_base_port;
          }
    in
    match result with
    | Error e ->
      prerr_endline e;
      exit 1
    | Ok o -> finish o
  in
  let term =
    Term.(
      const action $ sn_arg $ clients_arg $ shards_arg $ locks_arg
      $ srounds_arg $ think_arg $ hold_arg $ lease_arg $ batch_arg
      $ abandon_arg $ proto_arg $ quorum_arg $ seed_arg $ kill_arg
      $ restart_arg $ log_dir_arg $ timeout_arg $ hb_arg $ hbto_arg $ rto_arg
      $ transport_arg $ loss_arg $ dup_arg $ reorder_arg $ sim_arg
      $ latency_arg $ detect_delay_arg $ metrics_arg $ metrics_out_arg
      $ csv_arg)
  in
  Cmd.v
    (Cmd.info "swarm"
       ~doc:
         "Run the sharded lock service under a closed-loop client swarm: \
          hash a lock namespace across independent protocol instances \
          spread over N nodes, multiplex thousands of leased client \
          sessions over one connection per node, optionally kill and \
          restart nodes mid-run, then check every shard's merged trace \
          with the oracle and report per-shard acquire-latency \
          percentiles (exit 2 on any violation). $(b,--sim) runs the \
          deterministic virtual-time twin instead of live processes.")
    term

(* ---- top: live rates from a running cluster's scrape endpoints ---- *)

let top_cmd =
  let ports_arg =
    Arg.(
      non_empty & opt_all int []
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:
            "A metrics port to poll (repeatable) — what the daemons were \
             given via $(b,--metrics-base-port)/$(b,--metrics-port).")
  in
  let host_arg =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Host the daemons listen on.")
  in
  let interval_arg =
    Arg.(
      value & opt float 2.0
      & info [ "interval"; "i" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Exit after $(docv) polls (0 = run until interrupted).")
  in
  let no_clear_arg =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:"Append ticks instead of redrawing the screen.")
  in
  let action ports host interval count no_clear =
    if interval <= 0.0 then begin
      prerr_endline "top: interval must be positive";
      exit 1
    end;
    let fetch () =
      List.filter_map
        (fun port ->
          match Dmx_net.Scrape.http_get ~host ~port "/metrics.json" with
          | Ok (200, body) -> (
            match Dmx_model.Metrics_json.parse body with
            | Ok snap -> Some snap
            | Error e ->
              Printf.eprintf "top: port %d: %s\n%!" port e;
              None)
          | Ok (code, _) ->
            Printf.eprintf "top: port %d: HTTP %d\n%!" port code;
            None
          | Error e ->
            Printf.eprintf "top: port %d: %s\n%!" port e;
            None)
        ports
    in
    let render_key (s : Dmx_obs.Snapshot.series) =
      match s.labels with
      | [] -> s.name
      | ls ->
        s.name ^ "{"
        ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
        ^ "}"
    in
    let render ~rates snap =
      List.iter
        (fun (s : Dmx_obs.Snapshot.series) ->
          match s.value with
          | Dmx_obs.Snapshot.Counter 0 -> ()
          | Dmx_obs.Snapshot.Counter v ->
            if rates then
              Printf.printf "%-52s %12.1f/s\n" (render_key s)
                (float_of_int v /. interval)
            else Printf.printf "%-52s %12d\n" (render_key s) v
          | Dmx_obs.Snapshot.Gauge v ->
            Printf.printf "%-52s %12d  gauge\n" (render_key s) v
          | Dmx_obs.Snapshot.Histogram h ->
            if h.count > 0 then
              Printf.printf "%-52s %12d obs  p50=%dus p99=%dus max=%dus\n"
                (render_key s) h.count
                (Dmx_obs.Snapshot.quantile h 50.0)
                (Dmx_obs.Snapshot.quantile h 99.0)
                h.max)
        snap
    in
    let prev = ref None in
    let tick i =
      let snaps = fetch () in
      if snaps = [] && i = 0 then begin
        prerr_endline "top: no endpoint answered";
        exit 1
      end;
      let merged = Dmx_obs.Snapshot.merge_all snaps in
      let window =
        Option.map (fun p -> Dmx_obs.Snapshot.diff ~older:p ~newer:merged) !prev
      in
      prev := Some merged;
      if not no_clear then print_string "\027[2J\027[H";
      (match window with
      | None ->
        Printf.printf "dmx-sim top — %d/%d endpoint(s), totals (rates from \
                       the next poll)\n"
          (List.length snaps) (List.length ports);
        render ~rates:false merged
      | Some w ->
        Printf.printf "dmx-sim top — %d/%d endpoint(s), last %.1fs\n"
          (List.length snaps) (List.length ports) interval;
        render ~rates:true w);
      flush stdout
    in
    let i = ref 0 in
    while count = 0 || !i < count do
      tick !i;
      incr i;
      if count = 0 || !i < count then Unix.sleepf interval
    done
  in
  let term =
    Term.(
      const action $ ports_arg $ host_arg $ interval_arg $ count_arg
      $ no_clear_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll the /metrics.json scrape endpoints of a running cluster or \
          swarm and redraw a merged live view: counter rates over the \
          poll interval, gauge values, histogram percentiles. Start the \
          daemons with $(b,--metrics-base-port) and point $(b,--port) at \
          them.")
    term

let () =
  let doc =
    "Delay-optimal quorum-based distributed mutual exclusion (ICDCS'98) — \
     simulator front end"
  in
  let info = Cmd.info "dmx-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            compare_cmd;
            sweep_cmd;
            bench_cmd;
            validate_cmd;
            quorums_cmd;
            avail_cmd;
            trace_cmd;
            replay_cmd;
            cluster_cmd;
            swarm_cmd;
            top_cmd;
          ]))
