(** Deterministic seeded fault shim over any transport handle.

    Wraps a {!Transport_sig.handle} and subjects every {e outbound} frame
    to per-link loss, duplication, reorder (bounded holdback), delay
    spikes, and partition schedules — the same fault model as
    {!Dmx_sim.Network.fault_plan}, but against real processes. (Each
    node faults its own sends; with every node wrapped, every directed
    link is covered.) Inbound frames pass through untouched.

    {b Determinism.} The fate of the k-th frame offered on directed link
    (src, dst) is a {e pure} splitmix64 hash of (seed, src, dst, k),
    independent of wall-clock time and frame content — so two runs with
    the same seed make identical loss/duplication/reorder decisions even
    though real scheduling differs; {!decision} exposes the function for
    tests. Partition and delay-spike windows are wall-clock intervals
    relative to the cluster-wide workload epoch, distributed in the
    [Workload] frame and anchored via {!set_zero}; until the epoch is
    known the windows are inactive.

    {b Exemptions.} Links with either endpoint [>= plan.n] (the cluster
    supervisor) are exempt: chaos is for the protocol, not for the
    control plane that collects the evidence.

    The sim's spike [factor] multiplies a sampled delay; a real transport
    has no sampled delay, so a spike here holds frames for [extra]
    wall-clock seconds instead. *)

type partition = { from_t : float; until : float; groups : int list list }
(** As in {!Dmx_sim.Network.partition}: during [[from_t, until)] only
    sites in the same group exchange frames; unlisted sites form one
    implicit rest-group. Times are workload-epoch-relative seconds. *)

type plan = {
  seed : int;  (** fault-decision seed *)
  n : int;  (** site count; links touching ids [>= n] are exempt *)
  loss : float;  (** per-frame drop probability, in [0, 1) *)
  duplication : float;  (** per-frame duplicate probability, in [0, 1) *)
  reorder : float;  (** per-frame holdback probability, in [0, 1) *)
  reorder_hold : int;
      (** a held frame is released after this many subsequent frames on
          its link (or after 0.25 s on an idle link) *)
  delay_spikes : (float * float * float) list;
      (** [(from_t, until, extra)]: frames sent in the window are held
          [extra] seconds; overlapping spikes add *)
  partitions : partition list;
}

val no_faults : plan
val is_trivial : plan -> bool
(** [true] iff the plan injects nothing (schedule-free and all
    probabilities zero) — callers skip wrapping entirely. *)

val validate : plan -> unit
(** @raise Invalid_argument on malformed plans: probabilities outside
    [0, 1), empty windows, out-of-range or overlapping partition
    groups. *)

type decision = { lose : bool; duplicate : bool; reorder : bool }

val decision : plan -> src:int -> dst:int -> int -> decision
(** The pure fault decision for the k-th frame on (src, dst). *)

type t

val create : plan -> self:int -> peers:int list -> inner:Transport_sig.handle -> t
(** [peers] are the destinations a broadcast fans out to (per-link
    decisions require per-destination sends).
    @raise Invalid_argument as {!validate}. *)

val handle : t -> Transport_sig.handle
(** The wrapped handle the owner uses in place of [inner]. [stats] and
    [close] delegate to the inner transport; chaos's own counters are
    {!stats_alist}. *)

val set_zero : t -> float -> unit
(** Anchor partition/spike windows: wall-clock time of workload-epoch 0. *)

val stats_alist : t -> (string * int) list
(** Nonzero injected-fault counters, [("chaos.lost", v); ...] — ready for
    the [Metrics] frame's [reliable] list. *)

val register_obs :
  ?labels:(string * string) list -> Dmx_obs.Registry.t -> t -> unit
(** Register the injected-fault counters as registry probes under the
    [chaos.*] names {!stats_alist} uses (zeros included — a scrape shows
    the series exists even before the first injected fault). *)

(** {2 Plan transport} — compact single-token encoding (no spaces, no
    ['=']) so a plan rides the [DMX_SERVICE_SPEC] environment trampoline. *)

val plan_to_string : plan -> string

val plan_of_string : string -> plan
(** @raise Invalid_argument on malformed input. *)
