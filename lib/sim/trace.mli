(** Structured execution traces.

    When enabled, the engine records one entry per simulation action
    (message send/receive, CS entry/exit, timer, crash). Traces are the main
    debugging aid for protocol state machines and are also consumed by tests
    that assert ordering properties (e.g. "no reply is ever forwarded after
    the arbiter re-granted the lock"). Disabled collectors cost one branch
    per record call.

    Storage is flat: an enabled collector keeps its entries column-wise in
    three growable arrays (an unboxed [float] array of times, an [int]
    array of sites and a {!kind} array), so recording an entry allocates
    nothing beyond the kind itself. {!iter} walks the columns directly;
    {!entries} materializes the list form on demand. *)

type kind =
  | Send of { dst : int; msg : string }
  | Receive of { src : int; msg : string }
  | Enter_cs
  | Exit_cs
  | Timer of int
  | Crash
  | Recover
  | Drop of { dst : int; reason : string }
      (** a message the fault plan lost; [site] is the sender *)
  | Duplicate of { dst : int }
      (** an extra copy the fault plan injected; [site] is the sender *)
  | Partition of { heal : bool }  (** recorded with [site = -1] *)
  | Suspect of int  (** [site]'s detector started suspecting the argument *)
  | Trust of int  (** [site]'s detector revoked a suspicion *)
  | Note of string
  | Request
      (** the application issued a CS request at [site] (engine-recorded) *)
  | Adopt_quorum of int list
      (** [site] will contact this quorum for its current/next requests;
          re-recorded on every request and after an FT quorum rebuild *)
  | Acquire of { arbiter : int }
      (** [site] took possession of [arbiter]'s permission (a wanted reply) *)
  | Cede of { arbiter : int }
      (** [site] gave [arbiter]'s permission back (yield or plain release) *)
  | Forward of { arbiter : int; to_ : int }
      (** [site] handed [arbiter]'s permission directly to [to_] on exit
          (the delay-optimal transfer) *)
  | Grant of { to_ : int }
      (** arbiter [site] granted its own permission to [to_] *)

type entry = { time : float; site : int; kind : kind }

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity] bounds memory (default 1_000_000): the arrays start small
    and double as they fill, up to [capacity + 1] slots. Recording entry
    number [capacity + 1] discards all but the newest [capacity / 2]
    entries, in order, and sets {!truncated}.
    @raise Invalid_argument if [capacity] is negative. *)

val stream : (time:float -> site:int -> kind -> unit) -> t
(** An enabled collector that stores nothing: every {!record} goes
    straight to the consumer, in recording order. Its {!length} stays 0
    and it is never {!truncated}, so a whole-run analysis fed this way
    (e.g. [stream (Oracle.feed o)]) sees every entry of a run of any
    length. *)

val enabled : t -> bool
val record : t -> time:float -> site:int -> kind -> unit
val iter : (time:float -> site:int -> kind -> unit) -> t -> unit
(** Visit the stored entries in chronological order without building
    {!entry} records. *)

val entries : t -> entry list
(** Chronological order; a fresh list on every call. *)

val length : t -> int

val truncated : t -> bool
(** True once capacity trimming has discarded entries: the stream is no
    longer a complete record of the run, so whole-run analyses (e.g. the
    {!Oracle}) must not draw conclusions from it. *)

val clear : t -> unit
(** Forget every entry and the {!truncated} flag; the collector keeps its
    arrays and records afresh. *)

(** Payload text for [Send]/[Receive] entries. *)
module Render : sig
  type t
  (** A reusable buffer and formatter. Not shared between domains: each
      engine run or service host owns its own. *)

  val create : unit -> t

  val text : t -> (Format.formatter -> 'a -> unit) -> 'a -> string
  (** [text r pp x] is [Format.asprintf "%a" pp x], byte for byte. *)
end

val pp_entry : Format.formatter -> entry -> unit
val dump : Format.formatter -> t -> unit

val timeline : ?width:int -> t -> n:int -> string
(** ASCII swimlane view of the CS schedule: one row per site, time
    discretized into [width] columns; ['#'] marks the site inside the CS,
    ['X'] marks it crashed, ['.'] idle/waiting. Useful for eyeballing
    handoffs and failover gaps:

    {v
    t: 0.0 .. 41.3
    site  0 |..##....##....X
    site  1 |.....##.....##.
    v} *)
