(** The closed-loop client-swarm driver for the sharded lock service.

    Spawns [n] {!Snode} daemons over a real transport, runs a
    {!Clients} population (think → acquire → hold → release/abandon,
    for a fixed number of rounds each) on the wall clock with every
    session multiplexed over the driver's single endpoint, optionally
    kills and restarts daemons mid-run — re-homing the dead node's
    sessions onto live nodes with fresh incarnations — and finally
    merges each shard's streamed trace and runs the unmodified
    {!Dmx_sim.Oracle} on it, per shard.

    Acquire latency is measured driver-side, from the first [Acquire]
    send to the matching [Grant], so failover cost (retries, session
    re-homing after a kill) is part of the distribution, exactly as a
    client would experience it.

    When the hello phase ends the driver sends every daemon the
    workload epoch ([Workload { since }]), which opens the chaos plan's
    partition and delay-spike windows; a daemon that says hello later (a
    restart) gets it again. A run lasts until every client has finished
    {e and} the kill/restart schedule has played out, with every
    restarted daemon back. *)

module Summary = Dmx_sim.Stats.Summary
module Oracle = Dmx_sim.Oracle
module B = Dmx_quorum.Builder

type config = {
  n : int;  (** node count (>= 2) *)
  shards : int;  (** independent protocol instances *)
  clients : int;  (** closed-loop client population *)
  locks : int;  (** distinct lock names; [0] means one per client *)
  rounds : int;  (** acquire/release cycles per client *)
  think : float;  (** mean think time between rounds (exponential) *)
  hold : float;  (** hold time once granted, seconds *)
  lease : float;  (** lease duration handed to the daemons *)
  max_batch : int;  (** grants served per protocol CS tenure *)
  abandon : float;
      (** probability a granted client "crashes": never releases or
          renews, leaving cleanup to lease expiry *)
  protocol : string;  (** ["delay-optimal"] or ["ft-delay-optimal"] *)
  quorum : B.kind;
  seed : int;  (** drives think times and abandon decisions *)
  kills : (float * int) list;  (** (seconds after start, node) SIGKILLs *)
  restarts : (float * int) list;
      (** (seconds, node); each needs an earlier kill of the same node *)
  log_dir : string option;  (** daemon stderr logs, when given *)
  timeout : float;  (** overall failsafe, seconds *)
  detector : Dmx_sim.Detector.config;
      (** the daemons' heartbeat period and suspicion timeout *)
  rto : float;
  transport : string;  (** a {!Dmx_net.Transports} name *)
  chaos : Dmx_sim.Network.fault_plan;
      (** injected by the {!Dmx_net.Chaos} shim, seeded by [seed] *)
  hello_timeout : float;  (** startup phase limit *)
  ports : int list option;
      (** fixed loopback ports ([n] node ports, then the driver's)
          instead of kernel-allocated ones — test hook for bind-failure
          injection *)
  metrics_base_port : int;
      (** daemon [site] serves its metrics registry over HTTP on
          [metrics_base_port + site] ({!Dmx_net.Scrape}); [0] disables *)
}

val default : n:int -> config
(** 4 shards, 64 clients x 3 rounds, 50 ms mean think, 2 ms hold, 2 s
    lease, 100 ms heartbeats with a 1 s suspicion timeout, no kills, no
    chaos, TCP. *)

val validate : config -> (unit, string) result
(** {!Clients.check}, {!Host.protocol} on [protocol], [quorum] and
    [rto], plus the transport, hello timeout, port list,
    detector ({!Dmx_sim.Detector.validate}: [0 < period < timeout]) and
    chaos plan ({!Dmx_sim.Network.validate}); messages carry a [swarm:]
    prefix. *)

(** Per-shard distillation: driver-side counters, the acquire-latency
    summary, and the oracle's verdict over the merged trace (expressed
    in the shard's rotated site-id space). *)
type shard_outcome = {
  shard : int;
  acquires : int;  (** rounds started (first [Acquire] sends) *)
  grants : int;  (** [Grant]s matched to a waiting request *)
  expiries : int;
      (** rounds ended by lease expiry rather than release — abandons,
          kills, and lost frames all land here *)
  latency : Summary.t;  (** acquire-to-grant, seconds *)
  verdict : Oracle.verdict;
  occupancy_violations : int;  (** independent shard-local CS overlap scan *)
  trace_entries : int;
}

type outcome = {
  per_shard : shard_outcome array;
  wall_seconds : float;
  completed_clients : int;
  rehomed_sessions : int;  (** sessions moved off killed nodes *)
  live_stats : (string * int) list array;
      (** each node's final [Metrics] counters (lease, protocol,
          transport, chaos); empty for nodes that died without one *)
  snapshots : Dmx_obs.Snapshot.t array;
      (** each node's final registry snapshot ([Metrics_v2]);
          {!Dmx_obs.Snapshot.empty} for nodes that died without one *)
  driver_snapshot : Dmx_obs.Snapshot.t;
      (** the driver's own registry: per-shard
          [swarm.acquire_latency{shard=i}] histograms (observed
          driver-side, so failover cost is in the distribution) plus
          [swarm.acquires]/[swarm.grants]/[swarm.expiries] counters *)
}

val merged_snapshot : outcome -> Dmx_obs.Snapshot.t
(** {!Dmx_obs.Snapshot.merge_all} over every node's snapshot (the
    driver's own snapshot is {e not} folded in — it measures the client
    side, not the fleet). *)

val judge :
  n:int ->
  crashy:bool ->
  lossy:bool ->
  Dmx_sim.Trace.entry list ->
  Dmx_sim.Trace.entry list * Oracle.verdict * int
(** One shard's merged trace, stably sorted by time, with the oracle's
    verdict and the {!Dmx_sim.Occupancy} violation count. The oracle runs
    with FIFO off when [crashy] or [lossy] (a killed node's unflushed
    entries and wire-level chaos are invisible to its matcher) and
    custody off when [crashy]. *)

(** What the supervising half of {!run} collects, before any trace is
    judged. *)
type books = {
  tally : Clients.tally;  (** the client population's books *)
  crashy : bool;  (** the config kills a node *)
  lossy : bool;  (** the chaos plan injects faults *)
  elapsed : float;  (** seconds, spawn to reap (virtual in {!Sim_swarm}) *)
  node_stats : (string * int) list array;
  node_snapshots : Dmx_obs.Snapshot.t array;
}

val distil : n:int -> books -> outcome
(** {!judge} every shard's trace and assemble the outcome (also used by
    {!Sim_swarm}). *)

val supervise : config -> (books, string) result
(** Validate, spawn the daemons, drive the clients and the kill/restart
    schedule, then shut down and reap. [Error] (unprefixed) covers
    validation failures, daemons dying before hello, and the overall
    timeout; daemons are killed and the transport closed on every
    path. *)

val run : config -> (outcome, string) result
(** Run the swarm to completion. [Error] covers validation failures,
    daemons dying before hello, and the overall timeout; daemons are
    killed and the transport closed on every path. *)

val shard_ok : shard_outcome -> bool
(** Clean oracle verdict and zero occupancy violations. *)

val ok : outcome -> bool
(** Every shard is {!shard_ok}. *)

val live_totals : outcome -> (string * int) list
(** Sum of all nodes' final counters, sorted by key — rendered from
    {!merged_snapshot} when any node shipped a [Metrics_v2] snapshot,
    falling back to the legacy per-node alist fold otherwise. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** The per-shard table (counts + p50/p95/p99 in ms), totals, live
    counters, and any violations in full. *)
