(** Per-node lock-service logic, shared by the live daemon and the
    deterministic simulator.

    A host is one node's slice of the whole service: for each of the
    [shards] independent protocol instances it holds that instance's
    per-site state (under the {!Shard_map} rotation of site ids) and the
    {!Dmx_core.Lease} machine that adapts client sessions to the
    instance's single critical section. Shard traffic ([Sproto]) and
    client control frames ([Open_session]/[Acquire]/[Release_lock]/
    [Renew]) come in through {!Make.on_frame}; lease outcomes
    ([Grant]/[Deny]/[Expire]) and [Sproto] go out through the one
    [send] of {!caps} — the host itself never touches a socket, a
    clock, or a timer wheel, which is precisely what lets {!Snode} run
    it on the wall clock and {!Sim_swarm} on virtual time, byte-for-byte
    the same code.

    Trace entries are kept {e per shard}, in the shard's own rotated
    site-id space, so each shard's merged log looks to the unmodified
    {!Dmx_sim.Oracle} like a self-contained [n]-site system. *)

(** What the host needs from its surroundings. All times share one
    base: the wall clock in the daemon, virtual time in the simulator. *)
type caps = {
  now : unit -> float;
  send : dst:int -> Dmx_net.Wire.frame -> unit;
      (** deliver a frame: [Sproto] to peer node [dst] in [0, n), and
          [Grant]/[Deny]/[Expire] to the session gateway, [dst = n] *)
  set_timer : shard:int -> tag:int -> delay:float -> unit;
      (** one-shot timer, routed back through {!Make.on_timer} with the
          same [shard] and [tag]. Protocol timers use the protocol's own
          tags; lease timers use {!Dmx_core.Lease.timer_tag}. *)
}

(** A named protocol: its module, each shard's configuration, and its
    own counters ([live_stats] for the final [Metrics] frame,
    [attach_obs] as in {!Make.attach_obs}). *)
type protocol =
  | Protocol : {
      proto :
        (module Dmx_sim.Protocol.PROTOCOL
           with type message = Dmx_core.Messages.t
            and type state = 's
            and type config = 'c);
      pconfig : shard:int -> 'c;
      live_stats : 's -> (string * int) list;
      attach_obs :
        's -> labels:(string * string) list -> Dmx_obs.Registry.t -> unit;
    }
      -> protocol

val protocol :
  name:string ->
  quorum:Dmx_quorum.Builder.kind ->
  n:int ->
  rto:float ->
  (protocol, string) result
(** The service's protocol table: ["delay-optimal"], or
    ["ft-delay-optimal"] over {!Dmx_core.Reliable} with base timeout
    [rto] (backoff 2, ceiling [16 rto], ack delay [rto / 10]). [Error]
    names an unknown protocol, a quorum that does not support [n], or
    an [rto] {!Dmx_core.Reliable.validate} refuses. *)

module Make (P : Dmx_sim.Protocol.PROTOCOL) : sig
  type codec = {
    encode : P.message -> string;
    decode : string -> (P.message, string) result;
  }

  type t

  val create :
    caps:caps ->
    codec:codec ->
    self:int ->
    n:int ->
    shards:int ->
    lease:Dmx_core.Lease.config ->
    seed:int ->
    pconfig:(shard:int -> P.config) ->
    t
  (** [self] is this node's id in [0, n). [pconfig] builds each shard's
      protocol configuration (in site-id space, so usually the same
      coterie for every shard — the rotation happens underneath).
      @raise Invalid_argument on a bad [self] or [shards] < 1. *)

  (** {2 Client-session events} *)

  val open_session : t -> session:int -> inc:float -> unit
  (** Bind (or re-bind) a session. A repeat with the same or a smaller
      incarnation is a no-op; a {e larger} incarnation voids everything
      the previous incarnation queued or held — the client demonstrably
      restarted, so its stale lease must not run out the clock. *)

  val acquire : t -> session:int -> lock:string -> req:int -> unit
  (** Queue for [lock]. Unknown sessions get [Deny "no-session"] (the
      client re-opens and retries); duplicates are idempotent. *)

  val release : t -> session:int -> lock:string -> req:int -> unit
  (** Give a lease back, or withdraw a queued acquire. Stale releases
      (already expired) are ignored; unknown sessions too. *)

  val renew : t -> session:int -> lock:string -> req:int -> unit
  (** Slide the lease deadline; answered with [Grant], or [Expire] when
      the lease is already gone. *)

  (** {2 Network and timer events} *)

  val on_frame : t -> Dmx_net.Wire.frame -> unit
  (** Handle a received frame. [Sproto] is a peer node's protocol
      message: an out-of-range shard or sender is ignored, an
      undecodable payload traced and dropped. The four session frames
      go to {!open_session}, {!acquire}, {!release} and {!renew}; any
      other frame is the driver's and is ignored. Does not {!tick}. *)

  val on_timer : t -> shard:int -> tag:int -> unit
  val on_node_failure : t -> node:int -> unit
  (** Forward a suspected peer-node failure to every shard's protocol
      instance (translated into each shard's site-id space). *)

  val on_node_recovery : t -> node:int -> unit

  val tick : t -> unit
  (** Deliver pending protocol self-sends and any enter-CS the protocol
      signalled; call once per event-loop turn. *)

  (** {2 Output and introspection} *)

  val drain_traces : t -> (int * Dmx_sim.Trace.entry list) list
  (** Per-shard trace entries accumulated since the previous drain, in
      shard order, oldest first. *)

  val sent : t -> int
  (** Inter-node protocol messages sent (self-sends excluded), summed
      over shards. *)

  val received : t -> int
  val shard_count : t -> int
  val session_count : t -> int

  val kinds_alist : t -> (string * int) list
  (** Per-kind protocol send counts, as the final [Metrics] frame
      reports them. *)

  val lease_stats : t -> (string * int) list
  (** Lease counters summed over shards (["lease.grants"], ...), plus
      ["service.denies"] when any request was denied. *)

  val fold_states : t -> ('a -> P.state -> 'a) -> 'a -> 'a
  (** Fold over the per-shard protocol states — live-counter extraction
      (e.g. {!Dmx_core.Reliable.stats_alist}) without exposing the shard
      array. *)

  val attach_obs :
    ?proto:
      (P.state -> labels:(string * string) list -> Dmx_obs.Registry.t -> unit) ->
    t ->
    Dmx_obs.Registry.t ->
    unit
  (** Bind the host into a metrics registry: every shard's lease cells
      ({!Dmx_core.Lease.attach}, labelled [("shard", i)]), probes for
      [service.sent]/[service.received]/[service.denies], a
      [service.sessions] gauge probe, and live [service.messages.kind]
      counters. [proto] (default: nothing) binds protocol-owned cells
      under the same per-shard labels — e.g.
      {!Dmx_core.Reliable.attach}. *)
end
