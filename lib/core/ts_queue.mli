(** Arbiter request queue: a tiny priority queue of request timestamps,
    highest priority (smallest timestamp) first.

    Queues hold at most one entry per site (a site has at most one
    outstanding request, Section 2) and are short (bounded by the number of
    sites whose quorum contains this arbiter). The entries are two sorted,
    parallel [int] arrays of sequence numbers and site ids; an insert or a
    removal shifts cells in place, with no list rebuilt and no write
    barrier. Removal by site id is needed by the release path and the
    Section 6 failure cleanup.

    The state is canonical: a function of the entries alone. The capacity
    is fixed by the length (none when empty, else the smallest power of two
    from 8 up that holds the entries) and freed cells are reset, so two
    queues with the same entries are [=], and an emptied queue is [=] to
    {!create}[ ()]. The rule exists because the model checker
    ([Model_check]) identifies protocol states by polymorphic equality:
    a queue whose spare cells remembered its history would split one
    state into many. *)

type t

val create : unit -> t
val copy : t -> t
val is_empty : t -> bool
val length : t -> int

val insert : t -> Dmx_sim.Timestamp.t -> unit
(** At most one entry per site, keeping the newest (largest sequence
    number): a re-issued request supersedes the old one, while a stale
    re-enqueue of an already-superseded request is dropped. *)

val head : t -> Dmx_sim.Timestamp.t option
(** Highest-priority entry, not removed. *)

val pop : t -> Dmx_sim.Timestamp.t option
val remove_site : t -> int -> bool
(** Remove the entry of the given site; returns whether one was present. *)

val remove_ts : t -> Dmx_sim.Timestamp.t -> bool
(** Remove exactly this timestamp's entry; a newer request from the same
    site is left alone. *)

val mem_site : t -> int -> bool
val find_site : t -> int -> Dmx_sim.Timestamp.t option
val to_list : t -> Dmx_sim.Timestamp.t list
(** Priority order. *)

val clear : t -> unit
