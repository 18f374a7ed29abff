(** The deterministic virtual-time twin of the live {!Swarm} driver.

    Runs the {e same} {!Host} logic and the same {!Clients} population
    as the live driver, but on one {!Dmx_sim.Event_queue} with a seeded
    RNG driving think times, abandon decisions and per-frame link
    latencies (a {!Dmx_sim.Network} with the driver as endpoint [n]:
    channel-FIFO, like the TCP path), delivering to
    {!Host.Make.on_frame} as the daemon does. Node kills discard the host
    (fresh state on restart, stale timers fenced by a generation
    counter) and notify peers after [detect_delay], mirroring the live
    failure detector. Two runs with the same config are identical —
    traces, verdicts, percentiles — so the service is fuzzable and any
    failure replays from its seed. Results come back as
    {!Swarm.outcome} ([wall_seconds] is virtual time). *)

module B = Dmx_quorum.Builder

type config = {
  n : int;
  shards : int;
  clients : int;
  locks : int;  (** distinct lock names; [0] means one per client *)
  rounds : int;
  think : float;  (** mean think time (exponential) *)
  hold : float;
  lease : float;
  max_batch : int;
  abandon : float;  (** P(granted client vanishes without releasing) *)
  protocol : string;  (** ["delay-optimal"] or ["ft-delay-optimal"] *)
  quorum : B.kind;
  seed : int;  (** the whole run is a function of this *)
  kills : (float * int) list;  (** (virtual seconds, node) *)
  restarts : (float * int) list;
  latency : float;  (** mean one-way link latency, seconds *)
  detect_delay : float;  (** peer failure/recovery notification lag *)
  rto : float;  (** reliability-layer base RTO (ft protocol) *)
  max_time : float;  (** virtual-time failsafe *)
}

val default : n:int -> config
(** 4 shards, 64 clients x 3 rounds, 1 ms links, 50 ms detection. *)

val validate : config -> (unit, string) result
(** {!Clients.check}, a positive [latency], and {!Host.protocol} on
    [protocol], [quorum] and [rto]; messages carry a [sim-swarm:]
    prefix. *)

(** Instantiated per protocol; {!run_named} covers the named ones. *)
module Run (P : Dmx_sim.Protocol.PROTOCOL) : sig
  module H : module type of Host.Make (P)

  val run :
    config ->
    codec:H.codec ->
    ?live_stats:(P.state -> (string * int) list) ->
    ?attach_obs:
      (P.state -> labels:(string * string) list -> Dmx_obs.Registry.t -> unit) ->
    (shard:int -> P.config) ->
    (Swarm.outcome, string) result
  (** [attach_obs] binds protocol-owned metric cells under per-shard
      labels ({!Host.Make.attach_obs}), as the live daemon does — here
      into per-host registries recorded under virtual time, so the outcome's
      [snapshots] and [driver_snapshot] are a pure function of the
      config (the determinism suite checks bit-identity across runs). *)
end

val run_named : config -> (Swarm.outcome, string) result
(** Resolve [protocol]/[quorum] through {!Host.protocol}, the table
    {!Snode.run_named} uses, and run the simulation. *)
