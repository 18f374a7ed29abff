(** Time-ordered event queue for the discrete-event simulator.

    Events are ordered by (time, insertion sequence number): simultaneous
    events fire in insertion order, which makes every simulation run fully
    deterministic for a given seed regardless of floating-point tie
    patterns. *)

type 'a t

type 'a event = { time : float; seq : int; payload : 'a }

val create : unit -> 'a t

val schedule : 'a t -> time:float -> 'a -> unit
(** Enqueue a payload to fire at [time]. [time] must be finite and not less
    than the last popped time (no scheduling into the past).
    @raise Invalid_argument otherwise. *)

val pop : 'a t -> 'a
(** Remove the earliest event and return its payload; its time is then
    {!now}. The queue keeps no reference to a payload once {!pop} or
    {!drop_if} has removed it. Allocates nothing: the engine's run loop
    pops through this.
    @raise Invalid_argument on an empty queue. *)

val next : 'a t -> 'a event option
(** {!pop} as a record of the event's time, sequence number and payload,
    or [None] on an empty queue. *)

val peek_time : 'a t -> float option
(** Firing time of the earliest pending event. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val now : 'a t -> float
(** Time of the last popped event, 0.0 initially. *)

val pushes : 'a t -> int
(** Total events ever scheduled. *)

val pops : 'a t -> int
(** Total events ever popped via {!pop} or {!next}. *)

val peak : 'a t -> int
(** High-water heap length — the engine flushes these three into its
    metrics registry ([engine.heap.*]) at the end of a run. *)

val drop_if : 'a t -> ('a -> bool) -> int
(** Remove pending events whose payload satisfies the predicate (used for
    crash injection: dropping in-flight messages to a dead site). Returns
    how many events were dropped. *)
