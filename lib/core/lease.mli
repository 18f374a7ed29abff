(** Lease state machine: one shard of the lock service, on one node.

    The lock service ({!Dmx_service}) arbitrates each shard with an
    unmodified mutual-exclusion protocol whose participants are the
    {e service nodes}, not the clients. This machine is the adapter
    between the two worlds. It queues client acquires, asks the protocol
    for the shard's critical section exactly when the queue becomes
    non-empty, and — while the protocol holds the CS — hands out one
    time-bounded {e lease} at a time. A client that crashes or is
    partitioned away simply stops renewing; the lease expires and the
    shard moves on, so no client failure can wedge a shard.

    The machine is deliberately inert: it never touches the protocol, a
    socket, or a trace buffer. Every consequence of an event comes back
    as an {!action} list for the host to perform, and all clock access
    goes through the {!io} capabilities captured at {!create} — the same
    pattern as {!Reliable.io}, and for the same reason: the simulator
    passes engine virtual time, the live service daemon passes the wall
    clock, and the machine cannot tell the difference.

    Renewal is sliding-window: each {!renew} pushes the deadline to
    [now + duration]. Expiry uses a single timer chain per hold: the
    timer armed at grant time fires at the {e original} deadline,
    observes any pushed-out one, and re-arms — at most one timer is in
    flight per hold, regardless of renewal rate. *)

type io = {
  now : unit -> float;  (** time source: virtual time or the wall clock *)
  set_timer : delay:float -> unit;
      (** one-shot timer in the same time base as [now]; the host routes
          expiry back through {!on_timer}. The machine arms at most one
          timer per hold chain. *)
}

type config = {
  duration : float;  (** lease length; a renewal restarts this window *)
  max_batch : int;
      (** holds served within a single protocol CS tenure before the node
          releases and re-requests, so one node's local queue cannot
          monopolize the shard against other nodes' waiting clients *)
}

val default : config
(** duration = 2 s, max_batch = 8. *)

val timer_tag : int
(** The timer tag a host should use when routing this machine's timers
    through a shared [set_timer ~tag] facility — far outside the range
    any protocol (or {!Reliable}, which claims [0 .. 2n-1]) uses. *)

(** What the host must do, in order. [Grant]/[Expire] go to the named
    client session; [Request_cs]/[Release_cs] go to the shard's protocol
    instance (bracketed by the host's [Request]/[Exit_cs] trace entries,
    so the unmodified oracle checks the merged shard trace). *)
type action =
  | Grant of { session : int; req : int; deadline : float }
      (** the lease: the client holds the lock until [deadline] unless it
          renews; doubles as the renewal acknowledgement and as the
          re-ack for an idempotent duplicate acquire *)
  | Expire of { session : int; req : int }
      (** the hold ended without a release: deadline passed, or a renewal
          arrived too late *)
  | Request_cs  (** ask the shard's protocol instance for the CS *)
  | Release_cs  (** give the shard's CS back to the protocol *)

type t

val create : config -> io:io -> t
(** @raise Invalid_argument on a non-positive duration or batch. *)

val acquire : t -> session:int -> req:int -> action list
(** A client wants the shard's lock. [req] is the client's request id,
    echoed verbatim in the eventual [Grant]/[Expire] so the client can
    match responses across retries and re-homes. Duplicates are
    idempotent (datagram transports retry): a re-acquire of the current
    hold is re-acked with the unchanged [Grant], a re-acquire of a queued
    request says nothing. *)

val release : t -> session:int -> req:int -> action list
(** The client is done. A release that does not match the current hold is
    either a queued client withdrawing (the entry is dropped) or a stale
    release that lost the race with expiry (ignored — the client already
    got its [Expire]); neither can disturb a later hold. *)

val renew : t -> session:int -> req:int -> action list
(** Slide the current hold's deadline out to [now + duration]; answered
    with a fresh [Grant]. A renewal for anything but the current hold
    gets [Expire] — the client learns it renewed too late. *)

val granted : t -> action list
(** The shard's protocol instance entered the CS (the host observed
    [enter_cs]): grant the head of the queue. *)

val void_session : t -> session:int -> action list
(** Hard evidence the session's client lost its state (restart with a
    larger incarnation, or the session's connection owner died): drop its
    queued acquires and free its hold immediately — a dead client's lease
    must not run out its clock when we know it is dead. *)

val on_timer : t -> action list
(** The lease timer fired: expire the hold if its (possibly renewed)
    deadline has truly passed, otherwise re-arm for the remainder. *)

(** {2 Introspection} *)

val holder : t -> (int * int) option
(** Current [(session, req)] hold, if any. *)

val queue_length : t -> int
val in_cs : t -> bool
(** Is the node inside the shard's protocol-level CS tenure? *)

val requested : t -> bool
(** Is a protocol request outstanding? *)

(** {2 Counters} — for the swarm report and the [Metrics] frame. *)

type stats = {
  grants : int;  (** leases handed out (renewal re-grants excluded) *)
  renewals : int;
  expiries : int;  (** holds ended by the clock, not by a release *)
  voided : int;  (** queue entries and holds dropped by {!void_session} *)
  tenures : int;  (** protocol CS tenures entered *)
}

val stats : t -> stats

val stats_alist : t -> (string * int) list
(** Nonzero counters as [("lease.grants", v); ...] pairs. *)

val attach : ?labels:(string * string) list -> t -> Dmx_obs.Registry.t -> unit
(** Bind the machine's counter cells into a metrics registry under the
    [lease.*] names, plus a [lease.queue_depth] gauge probe (polled at
    snapshot time). [labels] distinguishes shards: [("shard", "3")]. *)
