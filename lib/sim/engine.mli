(** Discrete-event simulation engine.

    [Make (P)] runs protocol [P] over the Section-2 system model and
    measures what the paper's Section 5 derives analytically:

    - {e messages per CS execution}, total and by message kind;
    - {e synchronization delay}: time between a CS exit and the next CS
      entry, recorded only for contended handoffs (some site was already
      waiting when the exit happened) — exactly the paper's definition;
    - {e response time}: request issue to CS entry;
    - {e throughput}: CS executions per unit of simulated time.

    The engine also {e checks} mutual exclusion on every entry and flags
    deadlock (event queue drained while requests are outstanding, or no
    substantive event for a whole [stall_timeout] while requests are
    outstanding), so every simulation doubles as a safety/liveness test.

    Failure detection comes in two flavours: the fail-stop {!Oracle} of the
    paper's Section 6 (every survivor reliably learns of a crash after a
    fixed latency) and an unreliable {!Heartbeat} detector built from
    periodic heartbeats over the same faulty network as the protocol's own
    messages — so loss, partitions, and delay spikes can produce {e false}
    suspicions, delivered to the protocol through the same
    [on_failure]/[on_recovery] callbacks. *)

type detector =
  | Oracle of float
      (** fail-stop oracle: every surviving site learns of a crash this
          long after it happens (and of a recovery likewise) *)
  | Heartbeat of Detector.config
      (** per-site heartbeat/timeout detectors; see {!Detector} *)

type config = {
  n : int;  (** number of sites *)
  seed : int;
  delay : Network.delay_model;  (** message delay; its mean is the paper's T *)
  cs_duration : float;  (** CS execution time E *)
  workload : Workload.t;
  max_executions : int;  (** stop after this many completed CS executions *)
  max_time : float;  (** hard stop on simulated time *)
  warmup : int;
      (** executions excluded from all statistics (steady-state measurement
          under heavy load) *)
  crashes : (float * int) list;  (** (time, site) fail-stop injections *)
  recoveries : (float * int) list;
      (** (time, site) rejoin injections: the site comes back with fresh
          protocol state *)
  detector : detector;
  faults : Network.fault_plan;
      (** injected message loss/duplication/...; no reordering, the
          channels stay FIFO *)
  stall_timeout : float;
      (** watchdog horizon, armed only when faults are injected or the
          heartbeat detector runs (otherwise queue exhaustion detects
          deadlock as before): a run with outstanding requests but no
          substantive event for this long is declared deadlocked; a run
          with nothing outstanding and nothing substantive pending stops
          cleanly *)
  trace : bool;  (** record a full event trace *)
  lazy_sites : bool;
      (** instantiate a site's context and protocol state only when an event
          first touches it — the huge-N mode. Requires the [Oracle] detector
          (heartbeats would touch all N sites) and a workload whose active
          set is small. Off, every site is built up front in the reference
          order, so existing seeds reproduce bit-identically. *)
  obs : Dmx_obs.Registry.t option;
      (** metrics registry the run flushes into when the run ends:
          [engine.events], [engine.heap.push]/[pop]/[peak],
          [engine.executions], [engine.messages] and the per-kind
          [engine.messages.kind{kind=...}] family. Flushing happens under
          virtual time, so a seeded run's registry snapshot is
          bit-reproducible (see docs/observability.md). [None] (the
          default) records nothing and costs nothing. *)
}

val default : n:int -> config
(** Constant delay 1.0 (so times are in units of T), E = 0.5, saturated
    workload with all sites contending, 200 executions, 20 warmup,
    seed 42, oracle detector with latency 1.0, no crashes, no faults,
    stall_timeout 2000. *)

type report = {
  protocol : string;
  params : string;
  n : int;
  executions : int;  (** completed CS executions after warmup *)
  total_messages : int;  (** sent after warmup, self-messages excluded *)
  messages_by_kind : (string * int) list;
  messages_per_cs : float;
  sync_delay : Stats.Summary.t;
  response_time : Stats.Summary.t;
  throughput : float;
  sim_time : float;  (** simulated time at stop *)
  mean_delay : float;  (** the model's T, for normalizing *)
  violations : int;  (** mutual exclusion violations observed (must be 0) *)
  deadlocked : bool;
  pending_at_end : int;  (** requests never granted (0 unless deadlocked/crashed) *)
  per_site_executions : int array;  (** post-warmup CS completions per site *)
  fairness : float;
      (** Jain's index over sites that entered at least once: 1.0 = every
          such site was served equally often — the quantified form of the
          paper's starvation-freedom theorem *)
  retransmissions : int;
      (** post-warmup "retx" messages (reliability-layer re-sends) *)
  acks : int;  (** post-warmup "ack" messages *)
  detector_messages : int;  (** heartbeats sent over the whole run *)
  suspicions : int;  (** suspect transitions across all detectors *)
  false_suspicions : int;  (** suspicions of a site that was in fact up *)
  unavailability : Stats.Summary.t;
      (** durations of graceful-degradation windows: a site held an
          application request but no live quorum existed
          (see [Protocol.ctx.mark_parked]) *)
}

val pp_report : Format.formatter -> report -> unit

module Make (P : Protocol.PROTOCOL) : sig
  val run :
    ?trace_sink:Trace.t ->
    ?inspect:(int -> P.state -> unit) ->
    config ->
    P.config ->
    report
  (** Run one simulation. [trace_sink], when given, receives the execution
      trace (the [config.trace] flag is ignored in that case). [inspect] is
      called with each site's final protocol state before returning — the
      white-box hook used by tests and debugging. *)
end
