(** Collection point for analytic-model checks during a bench run.

    Experiments record finished simulations (or pre-computed ratio
    checks) here as they run; [Suite.run ~validate:true] turns the
    collected entries into {!Dmx_model.Model.check} verdicts at the end
    and fails the run on any band violation. Recording is a no-op unless
    {!enabled} is set, so the default bench path pays nothing.

    Experiments fan rows out over worker domains ([Scenarios.par_map]);
    {!par_map} keeps the recorded entries in job order, so the summary
    is byte-identical at any [--jobs]. *)

val enabled : bool Atomic.t
(** Set by the driver before experiments start. *)

val reset : unit -> unit
(** Drop all recorded entries (start of a validated run). *)

val record_report :
  source:string ->
  ?kind:Dmx_quorum.Builder.kind ->
  cfg:Dmx_sim.Engine.config ->
  Dmx_sim.Engine.report ->
  unit
(** Record a finished simulation; [source] names the table row, e.g.
    ["T1 delay-optimal heavy"]. No-op when validation is off. *)

val record_check : source:string -> Dmx_model.Model.expectation -> float -> unit
(** Record a derived value (e.g. a Maekawa/delay-optimal sync ratio)
    against an explicit expectation. No-op when validation is off. *)

val par_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [Dmx_sim.Pool.map] with each job's entries buffered, then recorded
    in list order — the order a sequential run records them in. *)

val verdicts : unit -> Dmx_model.Model.verdict list
(** Evaluate every recorded entry, in recording order. *)

val summarize : ?out:string -> unit -> int
(** Print one line per verdict (and write the same report to [out] when
    given), then a pass/fail tally; returns the number of violations. *)
