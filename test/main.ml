(* Aggregated alcotest runner for the whole repository. *)

(* The cluster and swarm integration tests re-execute this binary as the
   daemon image (see Dmx_service.Snode.env_var); the trampoline must run
   first. *)
let () = Dmx_service.Snode.run_as_child_if_requested ()

let () =
  Alcotest.run "dmx"
    [
      ("rng", Test_rng.suite);
      ("pool", Test_pool.suite);
      ("event-queue", Test_event_queue.suite);
      ("heap", Test_event_queue.heap_suite);
      ("network", Test_network.suite);
      ("detector", Test_detector.suite);
      ("reliable", Test_reliable.suite);
      ("stats", Test_stats.suite);
      ("timestamp", Test_timestamp.suite);
      ("trace", Test_trace.suite);
      ("workload", Test_workload.suite);
      ("engine", Test_engine.suite);
      ("coterie", Test_coterie.suite);
      ("quorums", Test_quorums.suite);
      ("rw-quorums", Test_rw_quorum.suite);
      ("ts-queue", Test_ts_queue.suite);
      ("delay-optimal", Test_delay_optimal.suite);
      ("model-check", Test_model_check.suite);
      ("protocols", Test_protocols.suite);
      ("paper-claims", Test_paper_claims.suite);
      ("model", Test_model.suite);
      ("snapshot", Test_snapshot.suite);
      ("baselines", Test_baselines.suite);
      ("fault-tolerance", Test_ft.suite);
      ("fault-soak", Test_fault_soak.suite);
      ("oracle", Test_oracle.suite);
      ("golden-replay", Test_golden.suite);
      ("fuzz", Test_fuzz.suite);
      ("obs", Test_obs.suite);
      ("wire", Test_wire.suite);
      ("chaos", Test_chaos.suite);
      ("udp", Test_transport.suite "udp");
      ("tcp", Test_transport.suite "tcp");
      ("cluster", Test_cluster.suite);
      ("lease", Test_lease.suite);
      ("service", Test_service.suite);
    ]
