(** Online trace oracle: global invariants of a run, checked as it is
    recorded.

    The engine checks mutual exclusion online; everything else the paper
    claims is a {e whole-run} property. This module consumes a run's
    {!Trace} stream one entry at a time ({!create}, {!feed}, {!finish})
    and validates:

    - {e mutex}: no two CS tenures overlap (Enter/Exit/Crash pairing);
    - {e quorum consistency}: every instrumented CS entry holds the
      permission of {e each} member of the quorum the site adopted for that
      request ([Adopt_quorum]/[Acquire]/[Cede]/[Forward] custody events),
      and all concurrently adopted quorums pairwise intersect (the coterie
      property, preserved across fault-tolerant quorum rebuilds);
    - {e permission conservation}: an arbiter's permission is held by at
      most one live site at a time — no loss or duplication across
      grant/transfer chains ([Grant] while held, [Acquire] while held by
      another, [Forward] without possession are violations; a crash voids
      the dead site's possessions);
    - {e per-channel FIFO}: receives on each (src, dst) channel appear in
      send order, allowing the gaps (loss, crashed endpoints) and adjacent
      stutters (duplication) fault injection produces;
    - {e timestamp-order fairness} (optional): no pending request is
      overtaken by younger requests more than [max_overtake] times;
    - {e message bounds} (optional): total traced messages per CS execution
      stay under [bound_per_cs] — e.g. the paper's 3(K-1) at light load.

    Memory follows the run's live state, not its length: O(n) per-site
    arrays, plus for FIFO one queue per channel holding the sends not yet
    consumed by a receive, so O(messages in flight). A receive is matched
    only against sends fed before it. A checked simulation feeds the
    oracle while the engine records ({!Trace.stream}); {!check} and
    {!check_trace} are the same checker over a stored list or collector,
    as used for merged live traces.

    Uninstrumented protocols (no custody events in the trace) degrade
    gracefully: custody and quorum checks are vacuous, mutex/FIFO/fairness
    still apply. A truncated trace proves nothing; the oracle refuses to
    pass it (see {!ok}). *)

type config = {
  n : int;
  fifo : bool;
      (** enable the per-channel FIFO check. Disable on runs with crashes
          or duplication: a recovered site's reliability layer restarts its
          sequence numbers, so textually identical messages recur across
          epochs, and duplicated copies take independent delays — neither
          is an ordering bug the checker can tell apart from one. *)
  custody : bool;
      (** enable the permission-conservation (and per-entry quorum
          coverage) checks. Disable on runs with crashes: the oracle's
          fail-stop model voids a dead site's possessions, but the engine
          recovers sites with their volatile state intact, so post-recovery
          transfers would be flagged spuriously. Coterie intersection stays
          active either way. *)
  max_overtake : int option;
      (** fairness bound; [None] disables (mandatory under faults, where
          parked minority-partition requests are overtaken unboundedly) *)
  bound_per_cs : float option;
      (** messages-per-CS ceiling; [None] disables (only meaningful on
          fault-free runs — retransmissions are not the protocol's cost) *)
}

val default : n:int -> config
(** FIFO and custody on, fairness and bounds off. *)

type violation = { time : float; site : int; what : string }
(** One invariant breach: when, at which site, and a human-readable
    description of what went wrong. *)

type verdict = {
  violations : violation list;  (** chronological; empty = clean *)
  entries_checked : int;
  cs_entries : int;  (** completed CS executions observed *)
  messages : int;  (** network (non-self) sends observed *)
  truncated : bool;  (** input trace was incomplete; nothing was checked *)
}

val ok : verdict -> bool
(** No violations {e and} the trace was complete. *)

val pp_violation : Format.formatter -> violation -> unit
(** One-line rendering: time, site, description. *)

val pp_verdict : Format.formatter -> verdict -> unit
(** Summary line plus one {!pp_violation} line per breach. *)

type t
(** One run's checker state. Not shared between domains. *)

val create : config -> t

val feed : t -> time:float -> site:int -> Trace.kind -> unit
(** Check one entry; entries must arrive in recording order. Its type is
    {!Trace.stream}'s consumer, so [Trace.stream (feed t)] checks a run as
    the engine records it. *)

val finish : t -> verdict
(** The verdict on everything fed so far, message bound included. Never
    {!verdict.truncated}: a fed stream is complete by construction. *)

val check : config -> Trace.entry list -> truncated:bool -> verdict
(** Feed a chronological entry list and {!finish}. Pass [~truncated:true]
    when the collector dropped entries — nothing is checked, the verdict
    is marked {!verdict.truncated} and {!ok} rejects it, since absence of
    violations in a partial trace proves nothing. *)

val check_trace : config -> Trace.t -> verdict
(** [check] on the collector's entries, honoring its truncation flag. *)

type load = Light | Heavy

val expected_bound : algo:string -> n:int -> k:int -> load -> float option
(** Tolerant messages-per-CS upper bound for a fault-free run of the named
    algorithm: the paper's count (3(K-1) light / 5-6(K-1) heavy for the
    quorum protocols, 3(N-1) Lamport, 2(N-1) Ricart-Agrawala, N token
    broadcast, O(log N) Raymond) plus slack for transients and deadlock-
    resolution traffic. [None] when the algorithm has no table entry. *)

val fairness_bound : algo:string -> n:int -> int option
(** Overtake budget for {!config.max_overtake} on fault-free runs. *)

val replay_file : string -> (Schedule.t, string) result
(** Parse a [.dmxrepro] reproducer (alias of {!Schedule.of_file}); the CLI
    [replay] command re-executes it. *)
