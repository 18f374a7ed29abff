(** The live lock-service daemon: one process hosting a node's slice of
    every shard over a real transport.

    The one live daemon of the repository, behind both {!Swarm} and
    {!Cluster}. It runs over any {!Dmx_net.Transports} name, wraps its
    sends in the {!Dmx_net.Chaos} shim when a plan is in force, beats
    heartbeats and runs a {!Dmx_sim.Detector} on the frames it hears
    (suspicions go to every shard as node failures, counted as
    [detector.suspicions]), exits on driver silence, dispatches the
    session/lease control frames into a {!Host} and streams each shard's
    trace as [Strace] frames, so the driver can run the unmodified oracle
    per shard. All client traffic arrives multiplexed over the driver's link
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

(** Run the daemon for a specific protocol. *)
module Run (P : Dmx_sim.Protocol.PROTOCOL) : sig
  module H : module type of Host.Make (P)

  val run :
    spec ->
    codec:H.codec ->
    ?live_stats:(P.state -> (string * int) list) ->
    ?attach_obs:
      (P.state -> labels:(string * string) list -> Dmx_obs.Registry.t -> unit) ->
    (shard:int -> P.config) ->
    unit
  (** Blocks until the driver's [Shutdown], driver silence beyond 30 s,
      or [spec.max_seconds]. [live_stats] extracts per-shard protocol
      counters for the final [Metrics] frame; [attach_obs] binds
      protocol-owned metric cells into the daemon's registry under
      per-shard labels (see {!Host.Make.attach_obs}), which feeds the
      [spec.metrics_port] scrape endpoint and the final
      {!Dmx_net.Wire.frame.Metrics_v2}. *)
end

val run_named : spec -> (unit, string) result
(** Resolve [spec.protocol] (["delay-optimal"] or ["ft-delay-optimal"])
    and [spec.quorum], and run the daemon. *)
