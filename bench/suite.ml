(* Experiment registry and driver behind the `dmx-sim bench` subcommand.
   Performance is measured by perf/ (see perf/README.md); this suite
   regenerates the paper's tables and figures and, with --validate,
   re-checks them against the Section 5 closed forms. *)

module R = Dmx_baselines.Runner

let registry =
  [
    ("table1", ("Table 1: messages and sync delay across algorithms", Experiments.table1));
    ("light-load", ("E1: light load, 3(K-1) messages", Experiments.light_load));
    ("heavy-load", ("E2: heavy load, 5..6(K-1) messages", Experiments.heavy_load));
    ("sync-delay", ("E3: synchronization delay T vs 2T", Experiments.sync_delay));
    ("throughput", ("E4: heavy-load throughput ratio", Experiments.throughput));
    ("waiting-time", ("E5: heavy-load waiting time ratio", Experiments.waiting_time));
    ("load-sweep", ("E6: offered load sweep", Experiments.load_sweep));
    ("quorum-size", ("E7: quorum size by construction", Experiments.quorum_size));
    ("constructions", ("E11: delay-optimal across quorum constructions", Experiments.constructions));
    ("availability", ("E8: coterie availability", Experiments.availability));
    ("fault-tolerance", ("E9: crash injection and detector ablation", Experiments.fault_tolerance));
    ("replica-control", ("E10: read/write quorums for replica control", Experiments.replica_control));
    ("unreliable-network", ("E12: loss sweep and partition healing", Experiments.unreliable_network));
    ("model-check", ("MC: exhaustive small-scope schedule exploration", Experiments.model_check));
    ("ablation", ("A1/A2: design-choice ablations (piggyback, eager fails)", Experiments.ablation));
    ("asymptotics", ("A3: huge-N sqrt(N)/log(N) scaling, machine-checked", Experiments.asymptotics));
    ("cluster-smoke", ("N1: real multi-process TCP cluster smoke", Net_smoke.run));
    ("cluster-chaos", ("N2: UDP cluster soak under injected loss", Net_chaos.run));
    ("lock-service", ("S1: sharded lock service under a client swarm", Service_swarm.run));
  ]

let names = List.map fst registry

(* Validate a selection; [] means everything, in registry order. The
   experiment labels used in EXPERIMENTS.md ("A3") are accepted as
   aliases. *)
let resolve selected =
  let canon a =
    match String.lowercase_ascii a with "a3" -> "asymptotics" | x -> x
  in
  let selected = List.map canon selected in
  let unknown = List.filter (fun a -> not (List.mem_assoc a registry)) selected in
  if unknown <> [] then Error unknown
  else Ok (if selected = [] then names else selected)

let print_experiments () =
  List.iter
    (fun (name, (desc, _)) -> Printf.printf "  %-16s %s\n" name desc)
    registry

(* Run [to_run] (pre-validated names) and return the exit code: 1 when an
   experiment failed, 2 when a model verdict failed, else 0. Oracle
   rejections under [check] are counted in [Runner.check_failures], which
   the caller turns into its own exit code. *)
let run ?(jobs = Dmx_sim.Pool.default_jobs ()) ?(validate = false)
    ?validate_out ~quick ~check to_run =
  Scenarios.quick := quick;
  Scenarios.jobs := max 1 jobs;
  if check then Atomic.set R.always_check true;
  if validate then begin
    Atomic.set Validate.enabled true;
    Validate.reset ()
  end;
  Printf.printf
    "dmx experiment suite - reproduction of Cao et al., ICDCS 1998%s\n"
    (if quick then " (quick mode)" else "");
  let t0 = Unix.gettimeofday () in
  let failed = ref [] in
  List.iter
    (fun name ->
      let _, f = List.assoc name registry in
      let t = Unix.gettimeofday () in
      match f () with
      | () ->
        Printf.printf "[%s finished in %.1fs]\n%!" name
          (Unix.gettimeofday () -. t)
      | exception Failure msg ->
        failed := name :: !failed;
        Printf.printf "[%s FAILED: %s]\n%!" name msg)
    to_run;
  Printf.printf "\nTotal: %.1fs\n" (Unix.gettimeofday () -. t0);
  let oracle_rejected = Atomic.get R.check_failures in
  if oracle_rejected > 0 then
    Printf.printf "trace oracle rejected %d run(s)\n" oracle_rejected;
  if !failed <> [] then
    Printf.printf "FAILED experiments: %s\n"
      (String.concat ", " (List.rev !failed));
  let model_failures =
    if validate then Validate.summarize ?out:validate_out () else 0
  in
  if !failed <> [] then 1 else if model_failures > 0 then 2 else 0
