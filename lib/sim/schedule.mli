(** Serializable run descriptors: the [.dmxrepro] replay format.

    A schedule is everything needed to re-execute a simulation bit-for-bit:
    algorithm and quorum construction (by name — resolution to a concrete
    runner lives above this library, in [Dmx_baselines.Runner]), the seed,
    and the full engine configuration including the fault plan. The fuzz
    harness generates schedules, runs them, and — when the {!Oracle}
    rejects a trace — {!shrink}s the schedule to a minimal reproducer that
    is persisted with {!to_file} and re-executed with [dmx-sim replay].

    The textual format is line-oriented ([key value...]); floats are
    written as C99 hex literals ([%h]) so parsing returns the exact bits
    that were serialized — replays are deterministic, not merely close. *)

type t = {
  algo : string;  (** runner name, e.g. "delay-optimal" *)
  quorum : string;  (** quorum construction name, [""] when not applicable *)
  seed : int;
  n : int;
  execs : int;  (** measured CS executions ([Engine.config.max_executions]) *)
  warmup : int;
  cs : float;
  delay : Network.delay_model;
  workload : Workload.t;
  faults : Network.fault_plan;
  crashes : (float * int) list;
  recoveries : (float * int) list;
  detector : Engine.detector;
  reliability : bool;  (** run the FT variant with its retry/ack layer *)
  stall : float;
}

val default : algo:string -> n:int -> t
(** Fault-free saturated run, seed 42, no warmup. *)

val to_engine_config : t -> Engine.config
(** Everything but the protocol choice, which the caller resolves from
    [algo]/[quorum]/[reliability]. *)

val to_string : t -> string
(** Canonical [.dmxrepro] text: fixed key order, one key per line, hex
    floats. [of_string (to_string t) = Ok t] for every [t]. The format is
    specified in [docs/dmxrepro.md]. *)

val of_string : string -> (t, string) result
(** Parse [.dmxrepro] text. Blank lines and [#] comments are skipped;
    unknown keys, a missing/non-positive [n] and a fault plan that
    {!Network.validate} rejects are errors. The fault lines are
    {!Network}'s text form ({!Network.fault_lines}). Omitted keys
    take {!default}'s values, with [n]-dependent defaults (the saturated
    workload's contender count) re-derived after parsing. *)

val to_file : t -> string -> unit
(** [to_file t path] writes {!to_string}[ t] to [path] (truncating). *)

val of_file : string -> (t, string) result
(** Read and {!of_string} a reproducer file; I/O errors become [Error]. *)

val shrink : t -> t list
(** Strictly-smaller candidate schedules, most aggressive first: fewer
    sites, fewer requests, fewer fault events, then delay jitter collapsed
    to its mean. Site-indexed components (workload, crashes, partitions)
    are re-clamped when [n] shrinks. *)

val minimize :
  ?max_attempts:int -> valid:(t -> bool) -> fails:(t -> bool) -> t -> t
(** Greedy shrinking: repeatedly replace the schedule by its first valid
    candidate that still [fails], until none does (a local minimum) or
    [max_attempts] (default 200) failing-run budget is spent. [fails]
    should run the schedule and report whether the bug reproduces. *)
