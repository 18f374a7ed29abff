(** Deterministic seeded fault shim over any transport handle.

    Wraps a {!Transport_sig.handle} and subjects every {e outbound} frame
    to a {!Dmx_sim.Network.fault_plan}: per-link loss, duplication,
    reorder (bounded holdback), delay spikes, and partition schedules.
    (Each node faults its own sends; with every node wrapped, every
    directed link is covered.) Inbound frames pass through untouched.

    {b Who owns what.} {!Dmx_sim.Network} owns the fault model: the plan,
    its validation, the per-frame decision ({!Dmx_sim.Network.decide}),
    the partition and spike windows, and the plan's text form. This
    module owns only the mechanics of applying it to real frames: per-link
    frame counters, the holdback of reordered frames, frames delayed by a
    spike, and the injected-fault counters. A spike adds its extra
    seconds here exactly as in the simulator.

    {b Determinism.} The fate of the k-th frame offered on directed link
    (src, dst) is decided from uniforms that are a {e pure} splitmix64
    hash of (seed, src, dst, k), independent of wall-clock time and frame
    content — so two runs with the same seed make identical
    loss/duplication/reorder decisions even though real scheduling
    differs; {!decision} exposes the function for tests. Partition and
    delay-spike windows are wall-clock intervals relative to the
    cluster-wide workload epoch, distributed in the [Workload] frame and
    anchored via {!set_zero}; until the epoch is known the windows are
    inactive.

    {b Exemptions.} Links with either endpoint [>= n] (the cluster
    supervisor) are exempt: chaos is for the protocol, not for the
    control plane that collects the evidence. *)

val decision :
  Dmx_sim.Network.fault_plan -> seed:int -> src:int -> dst:int -> int ->
  Dmx_sim.Network.fate
(** The fate the shim gives the k-th frame on (src, dst). *)

type t

val create :
  Dmx_sim.Network.fault_plan -> seed:int -> n:int -> self:int ->
  peers:int list -> inner:Transport_sig.handle -> t
(** [seed] keys the per-frame decisions; [n] is the site count, so links
    touching ids [>= n] are exempt. [peers] are the destinations a
    broadcast fans out to (per-link decisions require per-destination
    sends).
    @raise Invalid_argument as {!Dmx_sim.Network.validate}. *)

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
