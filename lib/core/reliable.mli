(** A retry/ack reliability layer ("TCP-lite") for protocol messages.

    The base algorithm assumes the paper's Section-2 model: reliable FIFO
    channels. Under an unreliable network (message loss, duplication,
    partitions) that assumption is restored here, per peer:

    - every outgoing message is wrapped in a {!Messages.Data} envelope with
      a monotone per-peer sequence number;
    - the receiver delivers strictly in order, buffering gaps, suppressing
      duplicates, and acknowledging cumulatively with a delayed
      {!Messages.Ack} (one ack covers a burst);
    - unacknowledged messages are retransmitted as a block on an
      exponential-backoff timer, capped at [rto_max]. A deadline that
      observes ack progress since it was armed re-arms at the base [rto]
      instead of retransmitting: under pipelined traffic the backlog is
      mostly young messages the block timer has no individual deadline
      for, and a flowing ack stream proves the path is alive;
    - retransmission to a suspected peer can be {!suspend}ed and
      {!resume}d on a trust transition, so a partition does not generate
      unbounded traffic;
    - each site stamps an {e incarnation number} (its init time) on every
      envelope. A receiver adopts a strictly larger incarnation, restarting
      the peer's stream at the envelope's [base] — and reports it, giving
      the fault-tolerant layer hard evidence that the peer lost its state
      (as opposed to an unreliable detector hint). Within an incarnation
      sequence numbers never reset, so in-flight pre-restart messages
      cannot corrupt the fresh stream;
    - envelopes also carry the sender's last known incarnation of the
      {e destination}. A restarted site drops mail addressed to its dead
      predecessor — without this, a peer's retransmissions could resurrect
      a pre-crash conversation inside the fresh protocol state, which
      restarts its Lamport clock and may be reusing the very timestamps
      that conversation names. Symmetrically, restart evidence for a peer
      voids our own retransmission backlog to it.

    The layer claims timer tags [0 .. 2n-1] of the host protocol.

    It is {e time-source agnostic}: all clock and timer access goes through
    the {!io} capabilities captured at {!create}. The simulator passes
    engine virtual time (via {!io_of_ctx}); the networked runtime
    ({!Dmx_net}) passes the wall clock — the same layer, unchanged, in both
    worlds. *)

type io = {
  now : unit -> float;
      (** time source — engine virtual time or the wall clock; only read
          once, at {!create}, to stamp the incarnation number *)
  send : dst:int -> Messages.t -> unit;  (** the unreliable channel below *)
  set_timer : delay:float -> tag:int -> unit;
      (** one-shot timer in the same time base as [now]; expiries are fed
          back through {!on_timer} *)
}

val io_of_ctx : Messages.t Dmx_sim.Protocol.ctx -> io
(** The simulator binding: virtual-time [now], engine [send] and
    [set_timer]. *)

type config = {
  rto : float;  (** initial retransmission timeout *)
  backoff : float;  (** multiplier applied per retransmission round, >= 1 *)
  rto_max : float;  (** backoff ceiling *)
  ack_delay : float;  (** ack coalescing window *)
}

val default : config
(** rto = 3, backoff = 2, rto_max = 30, ack_delay = 0.5 — in units of the
    mean message delay T (rto comfortably above one round trip). *)

val validate : config -> unit
(** @raise Invalid_argument naming the first nonsensical field: [rto] or
    [ack_delay] not positive (NaN included), [backoff] below 1, or
    [rto_max] below [rto]. {!create} makes the same check. *)

type t

val create : config -> n:int -> self:int -> io:io -> t
(** [io.now ()] at creation becomes this site's incarnation number, so the
    time source must be monotone across restarts of the same site (both
    engine virtual time and the wall clock qualify).
    @raise Invalid_argument on a config {!validate} refuses. *)

type incoming = {
  restarted : bool;
      (** the sender provably lost its state since we last heard from it:
          its incarnation number grew *)
  deliveries : Messages.t list;  (** in-order payloads to hand up *)
}

val send : t -> dst:int -> Messages.t -> unit
(** Wrap and transmit through [io.send]; arms the retransmission timer
    unless [dst] is suspended. Not for self-sends (those bypass the
    network). *)

val on_message : t -> src:int -> Messages.t -> incoming
(** Feed a received [Data] or [Ack].
    @raise Invalid_argument on any other constructor. *)

val on_timer : t -> int -> bool
(** [false] if the tag is outside the layer's range (not ours). *)

val suspend : t -> int -> unit
(** Stop retransmitting to the peer (it is suspected down/unreachable).
    Unacknowledged messages are retained. *)

val resume : t -> int -> unit
(** The peer is trusted again: immediately retransmit its backlog with a
    fresh timeout. *)

val in_flight : t -> int -> int
(** Unacknowledged message count toward the peer (test/debug hook). *)

(** {2 Live counters} — what the layer actually did, for cluster reports
    and the [Metrics] control frame. *)

type stats = {
  retransmits : int;  (** envelopes resent by the block timer or {!resume} *)
  acks_sent : int;  (** cumulative [Ack]s emitted *)
  dup_drops : int;
      (** received [Data] suppressed as already-delivered or
          already-buffered *)
  stale_drops : int;
      (** received [Data] discarded for incarnation reasons: a dead
          sender's straggler, or mail addressed to this site's dead
          predecessor *)
}

val no_stats : stats

val stats : t -> stats

val stats_alist : t -> (string * int) list
(** Nonzero counters as [("reliable.retransmits", v); ...] pairs, ready
    for a metrics frame. *)

val attach : ?labels:(string * string) list -> t -> Dmx_obs.Registry.t -> unit
(** Bind the layer's counter cells into a metrics registry under the
    [reliable.*] names (with [labels] distinguishing instances — e.g.
    [("shard", "3")] when a host runs one layer per shard). The registry
    then sees live values with no polling: the cells registered are the
    very ints the hot path increments. *)
