(** Heterogeneous protocol runners.

    [Engine.Make] produces one module per protocol; experiments, the CLI
    and the examples want to iterate over {e all} algorithms uniformly.
    A [t] packages "run this protocol under that engine config" behind a
    first-class function, with the protocol's static parameters (quorum
    construction, token topology) already applied. *)

type t = {
  name : string;  (** e.g. "delay-optimal" *)
  variant : string;  (** e.g. the quorum kind, "" when not applicable *)
  run : Dmx_sim.Engine.config -> Dmx_sim.Engine.report;
      (** honors {!always_check}: oracle-verifies the run when enabled *)
  run_traced :
    ?trace_sink:Dmx_sim.Trace.t ->
    Dmx_sim.Engine.config ->
    Dmx_sim.Engine.report;
      (** raw run, recording into [trace_sink] when given *)
}

val always_check : bool Atomic.t
(** When set, every {!field-run} feeds {!Dmx_sim.Oracle} as the engine
    records (through {!Dmx_sim.Trace.stream}, storing no trace) with
    {!oracle_config}'s relaxations; violations are printed to stderr and
    counted in {!check_failures}. Default [false] (zero overhead).
    Atomic because checked runs may execute on several domains under
    {!Dmx_sim.Pool}; set it once before fanning out. *)

val run_reporting : t -> Dmx_sim.Engine.config -> Dmx_sim.Engine.report
(** {!field-run}, except that under {!always_check} the oracle's verdict
    line goes to stderr when the run passes too. *)

val oracle_config : Dmx_sim.Engine.config -> Dmx_sim.Oracle.config
(** {!Dmx_sim.Oracle.default} with FIFO off under crashes or duplication
    and custody off under crashes, where their assumptions break (see
    {!Dmx_sim.Oracle.config}). *)

val check_failures : int Atomic.t
(** Number of oracle-rejected runs since startup; drivers exit nonzero
    when this is positive at the end. Safe to bump from worker domains. *)

val delay_optimal : ?kind:Dmx_quorum.Builder.kind -> n:int -> unit -> t
(** Default quorum: [Grid]. *)

val ft_delay_optimal :
  ?reliability:Dmx_core.Reliable.config ->
  ?trust_detector:bool ->
  ?kind:Dmx_quorum.Builder.kind ->
  n:int ->
  unit ->
  t
(** Fault-tolerant variant (default quorum: [Tree], the reconstruction-
    friendly coterie). [reliability] enables the retry/ack layer (needed
    under a lossy {!Dmx_sim.Network.fault_plan}); [trust_detector:false]
    switches to suspicion semantics for heartbeat detection. *)

val maekawa : ?kind:Dmx_quorum.Builder.kind -> n:int -> unit -> t
(** Maekawa's √N-quorum algorithm with deadlock resolution (default
    quorum: [Grid]). The remaining baselines take no parameters beyond
    [n]: *)

val lamport : n:int -> t
val ricart_agrawala : n:int -> t
val singhal_dynamic : n:int -> t
val suzuki_kasami : n:int -> t
val singhal_heuristic : n:int -> t
val raymond : ?chain:bool -> n:int -> unit -> t

val all : n:int -> t list
(** One of each algorithm with its default parameters: the Table 1 set. *)

val by_name : string -> (n:int -> t, string) result
(** Look up a runner constructor by [name] ("delay-optimal", "maekawa",
    "lamport", "ricart-agrawala", "singhal-dynamic", "suzuki-kasami",
    "singhal-heuristic", "raymond", "ft-delay-optimal"). *)

val names : string list
(** The registry's algorithm names, in {!by_name}'s spelling. *)

val of_algo :
  ?faults:Dmx_sim.Network.fault_plan ->
  ?detector:Dmx_sim.Engine.detector ->
  ?kind:Dmx_quorum.Builder.kind ->
  string ->
  n:int ->
  (t, string) result
(** {!by_name} plus environment-aware wiring: under a lossy [faults] plan
    or a heartbeat [detector], "ft-delay-optimal" gets its retry/ack
    reliability layer and suspicion (rather than oracle-trusting) detector
    semantics. Also accepts "raymond-chain" and applies [kind] to the
    quorum-based algorithms. *)

val of_schedule :
  ?extra:(string * (n:int -> t)) list ->
  Dmx_sim.Schedule.t ->
  (t, string) result
(** Resolve a schedule's [algo]/[quorum]/[reliability]/[detector] fields to
    a runner. [extra] prepends test-only runners (e.g. an intentionally
    broken protocol for fuzz-harness self-tests) consulted before the
    standard registry. *)

val run_schedule :
  ?extra:(string * (n:int -> t)) list ->
  Dmx_sim.Schedule.t ->
  (Dmx_sim.Engine.report * Dmx_sim.Trace.t, string) result
(** Resolve and execute a schedule with full tracing; returns the report
    and the recorded trace for {!Dmx_sim.Oracle} inspection. *)
