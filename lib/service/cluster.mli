(** The paper's system model run live: [n] local site processes, each
    completing [rounds] CS entries, optionally killed and restarted
    mid-run, with the merged per-site trace distilled into the same
    artifacts a simulation produces.

    A cluster is a one-shard {!Swarm}: one lock, [n] clients with client
    [i] homed on node [i], no think time, a hold of [cs_duration], and
    one grant per protocol CS tenure. Shard 0's rotation is the
    identity, so trace site ids are node ids. The driver re-executes its
    own binary as the {!Snode} daemon image, so [run] works from the
    CLI, the test runner and the bench runner alike; call
    {!Snode.run_as_child_if_requested} first.

    The outcome carries a genuine {!Dmx_sim.Engine.report}, so the
    existing report/CSV printers apply unchanged. Executions (total and
    per site) are the driver's grants; per-kind message counts are the
    daemons' [service.messages.kind] series; every other figure comes
    from shard 0's merged trace, which is also checked by
    {!Dmx_sim.Occupancy} and {!Dmx_sim.Oracle} (FIFO and custody relax on
    runs with kills, and FIFO on runs with chaos, exactly as for the
    swarm).

    {b Kills.} A killed site's client re-homes to the next live node and
    finishes its rounds there. A restarted site rejoins as an arbiter
    with fresh state; it runs no quota of its own. The run lasts until
    every client is done and the kill/restart schedule has played out. *)

type config = {
  n : int;
  protocol : string;  (** ["delay-optimal"] or ["ft-delay-optimal"] *)
  quorum : Dmx_quorum.Builder.kind;
  rounds : int;  (** CS entries each site's client completes *)
  cs_duration : float;  (** seconds inside the CS *)
  seed : int;
  kills : (float * int) list;
      (** (seconds after workload start, site): SIGKILL the node process *)
  restarts : (float * int) list;
      (** (seconds after workload start, site): respawn a killed site on
          its old port with fresh state *)
  log_dir : string option;  (** per-node stderr logs, when given *)
  timeout : float;  (** hard wall-clock bound on the whole run *)
  detector : Dmx_sim.Detector.config;
      (** the nodes' heartbeat period and suspicion timeout *)
  rto : float;  (** nodes' reliability-layer base timeout *)
  transport : string;  (** a {!Dmx_net.Transports.create} name *)
  chaos : Dmx_sim.Network.fault_plan;
      (** fault plan injected at every node by the {!Dmx_net.Chaos} shim
          ({!Dmx_sim.Network.no_faults} runs bare), seeded by [seed].
          Windows count from the workload start. *)
  hello_timeout : float;
      (** seconds allowed for {e all} nodes to say hello; a node that
          cannot bind its port or dies on startup fails the run by name
          instead of wedging it *)
  ports : int list option;  (** as {!Swarm.config.ports} *)
  metrics_base_port : int;
      (** when nonzero, node [i] serves its metrics registry over HTTP on
          loopback port [metrics_base_port + i] ({!Dmx_net.Scrape}); [0]
          (the default) starts no listeners *)
}

val default : n:int -> config
(** ft-delay-optimal over tree quorums, 20 rounds, 1 ms CS, no kills,
    180 s timeout (a lossy UDP run of 100 CS entries takes 60-90 s on a
    2-vCPU VM), 100 ms heartbeats with a 1 s suspicion timeout, TCP
    transport, no chaos, 10 s hello deadline. *)

type outcome = {
  report : Dmx_sim.Engine.report;
  verdict : Dmx_sim.Oracle.verdict;
  entries : Dmx_sim.Trace.entry list;  (** shard 0's, merged, time-sorted *)
  wall_seconds : float;
  snapshots : Dmx_obs.Snapshot.t array;
      (** per-node metrics-registry snapshots from the final
          {!Dmx_net.Wire.frame.Metrics_v2} frames — the same registries the
          nodes serve on their scrape endpoints ({!Dmx_obs.Snapshot.empty}
          for a node that reported nothing, e.g. one killed for good) *)
}

val merged_snapshot : outcome -> Dmx_obs.Snapshot.t
(** All nodes' snapshots summed with {!Dmx_obs.Snapshot.merge} — fleet
    totals for every series. *)

val run : config -> (outcome, string) result
(** [Error] on a bad configuration, a node that cannot come up, or the
    timeout expiring; every child process is reaped on all paths. *)

val live_totals : outcome -> (string * int) list
(** Nonzero fleet totals as [(name, value)] pairs, rendered from
    {!merged_snapshot}; labelled series carry their labels in the key,
    e.g. [reliable.retransmits{shard=0}]. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The engine report, the occupancy line, aggregated live counters, and
    the oracle verdict. *)
