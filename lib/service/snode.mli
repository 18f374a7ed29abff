(** The live lock-service daemon: one process hosting a node's slice of
    every shard over a real transport.

    The one live daemon of the repository, behind both {!Swarm} and
    {!Cluster}. It hands every frame it receives to
    {!Host.Make.on_frame}, and the host sends through the transport.
    The rest is what only a live node needs: it runs over any
    {!Dmx_net.Transports} name, wraps its sends in the {!Dmx_net.Chaos}
    shim when a plan is in force, beats heartbeats and runs a
    {!Dmx_sim.Detector} on the frames it hears (suspicions go to every
    shard as node failures, counted as [detector.suspicions]), exits on
    the driver's [Shutdown] or silence, and streams each shard's trace
    as [Strace] frames, so the driver can run the unmodified oracle per
    shard. All client traffic arrives multiplexed over the driver's link
    (peer id [n]); responses go back the same way.

    The daemon says [Hello] every heartbeat period until the driver's
    [Workload { since }] arrives; that epoch anchors the chaos plan's
    partition and delay-spike windows. *)

(** Everything a daemon process needs to come up, delivered through the
    {!env_var} trampoline by the swarm driver. *)
type spec = {
  site : int;
  n : int;
  node_ports : int array;  (** listen port of every node, index = id *)
  supervisor_port : int;  (** the swarm driver's port (peer id [n]) *)
  protocol : string;  (** ["delay-optimal"] or ["ft-delay-optimal"] *)
  quorum : string;  (** a {!Dmx_quorum.Builder.parse_kind} spelling *)
  shards : int;
  lease : float;  (** lease duration, seconds *)
  max_batch : int;  (** leases served per protocol CS tenure *)
  seed : int;
  epoch : float;  (** cluster time zero (absolute [gettimeofday]) *)
  detector : Dmx_sim.Detector.config;
      (** heartbeat period and suspicion timeout of the daemon's failure
          detector *)
  rto : float;  (** reliability-layer base retransmission timeout *)
  max_seconds : float;  (** failsafe wall-clock limit *)
  transport : string;  (** a {!Dmx_net.Transports.create} name *)
  chaos : Dmx_sim.Network.fault_plan;
      (** the {!Dmx_net.Chaos} shim's plan, seeded by [seed] *)
  metrics_port : int;
      (** serve the daemon's metrics registry over HTTP
          ({!Dmx_net.Scrape}) on this loopback port; [0] disables *)
}

val spec_to_string : spec -> string
val spec_of_string : string -> (spec, string) result

val env_var : string
(** [DMX_SERVICE_SPEC]: the environment variable through which a driver
    hands a re-executed copy of its own binary the daemon's spec. *)

val run_as_child_if_requested : unit -> unit
(** Check {!env_var}; when present, run the daemon to completion and
    [exit]. Must be called before the host executable does anything
    else. *)

val run_named : spec -> (unit, string) result
(** Resolve [spec.quorum] and [spec.protocol] through {!Host.protocol}
    and run the daemon. It blocks until the driver's [Shutdown], driver
    silence beyond 30 s, or [spec.max_seconds]. Its metrics registry
    (lease and protocol cells per shard, transport and chaos probes)
    feeds the [spec.metrics_port] scrape endpoint and the final
    {!Dmx_net.Wire.frame.Metrics_v2}. *)
