(** Network model: message delays, FIFO channels, site crashes, and
    injected faults.

    Implements the system model of Section 2 of the paper: sites are fully
    connected, channels are FIFO, message delay is unpredictable but bounded,
    with mean delay [T]. Crash support (used by the Section 6 fault-tolerance
    experiments) marks sites dead; messages to or from a dead site are
    silently dropped, as in a fail-stop model.

    Beyond the paper's model, a seeded deterministic {!fault_plan} can
    subject every channel to message loss, duplication, scheduled network
    partitions, and delay spikes. Faults are drawn from a dedicated
    generator, so two runs with the same seeds inject the same faults.

    This module owns the repository's one fault model: the plan, its
    validation, the per-message decision, the partition and spike
    windows, and the plan's text form. The simulator applies it here in
    {!transmit}; the live chaos shim ([Dmx_net.Chaos]) applies the same
    plan to real frames and owns only the mechanics of doing so. *)

type delay_model =
  | Constant of float  (** every message takes exactly this long *)
  | Uniform of { lo : float; hi : float }  (** uniform in [lo, hi] *)
  | Exponential of { mean : float }  (** memoryless; heavy tail *)
  | Shifted_exponential of { base : float; extra_mean : float }
      (** a wire latency plus exponential queueing: [base + Exp(extra_mean)] *)

val mean_delay : delay_model -> float
(** The average message delay [T] of the model. *)

val pp_delay_model : Format.formatter -> delay_model -> unit

(** {2 The fault model} *)

type partition = { from_t : float; until : float; groups : int list list }
(** During [[from_t, until)] only sites within the same group can exchange
    messages. Sites not listed in any group form one implicit rest-group.
    An infinite [until] never heals. *)

type fault_plan = {
  loss : float;  (** per-message drop probability, in [0, 1) *)
  duplication : float;  (** per-message duplicate probability, in [0, 1) *)
  reorder : float;
      (** per-message holdback probability, in [0, 1); live only: the
          simulator's channels are FIFO and {!create} rejects it *)
  reorder_hold : int;
      (** a held message is released after this many later messages on
          its link (the shim also releases it after 0.25 s idle) *)
  partitions : partition list;
  delay_spikes : (float * float * float) list;
      (** [(from_t, until, extra)]: a message sent in the window takes
          [extra] more seconds; overlapping spikes add. *)
}

val no_faults : fault_plan
(** Nothing injected; [reorder_hold] is 3. *)

val is_trivial : fault_plan -> bool
(** [true] iff the plan injects nothing: all probabilities zero, no
    partition, no spike. *)

val validate : n:int -> fault_plan -> unit
(** The one validator, used by {!create}, the chaos shim and the service
    drivers.
    @raise Invalid_argument on probabilities outside [0, 1) (NaN
    included), a [reorder_hold] below 1, empty or non-finite windows (a
    partition's [until] may be infinite), partition sites outside
    [0, n) or in two groups, and spike extras that are not positive and
    finite. *)

type fate = { lose : bool; duplicate : bool; reorder : bool }

val decide : fault_plan -> (int -> float) -> fate
(** [decide plan draw] is the fate of one message. [draw salt] must
    return a uniform in [0, 1) for question [salt]: 1 loss,
    2 duplication, 3 reorder. A question is asked only when its
    probability is positive, and duplication and reorder only for a
    message that was not lost, in that order. The simulator answers from
    its fault generator, the shim from a pure hash of the frame's link
    and index. Never allocates. *)

val partitioned : fault_plan -> src:int -> dst:int -> at:float -> bool
(** Whether a partition window open at [at] separates [src] from
    [dst]. *)

val spike_extra : fault_plan -> at:float -> float
(** Seconds added to a message sent at [at]: the sum of the extras of
    the spike windows open then. *)

(** {3 Text form}

    One line per fault, as in a [.dmxrepro] file ([docs/dmxrepro.md]):
    [loss P], [dup P], [reorder P], [hold K], [partition FROM UNTIL
    G1|G2|...], [spike FROM UNTIL EXTRA]. Floats are hex ({!hex_float}),
    so parsing returns the exact bits. Lines for zero probabilities and
    the default hold are omitted. *)

val hex_float : float -> string
(** [%h], with infinities spelled [inf] / [-inf]. *)

val fault_lines : fault_plan -> string list

val add_fault_line :
  fault_plan -> string list -> (fault_plan, string) result option
(** [add_fault_line plan words] adds the fault line split into [words]
    to [plan]: [None] if the words are not a fault line, [Some (Error _)]
    if they are one but malformed. Repeated partitions and spikes
    accumulate in order. Does not validate. *)

val faults_of_lines : n:int -> string list -> (fault_plan, string) result
(** Parse {!fault_lines} output and {!validate} the plan. *)

(** {2 The network} *)

type drop_reason = [ `Down | `Partitioned | `Faulty ]

type verdict =
  | Delivered  (** one copy, arriving at [arrival t 0] *)
  | Duplicated  (** two copies, arriving at [arrival t 0] and [arrival t 1] *)
  | Lost of drop_reason
(** Every constructor is a constant, so a verdict never allocates; the
    delivery times are read back with {!arrival}. *)

type t

val create :
  ?faults:fault_plan -> ?fault_rng:Rng.t ->
  n:int -> delay:delay_model -> rng:Rng.t -> unit -> t
(** [create ~n ~delay ~rng ()] models a fully connected network of [n]
    sites. The generator is consumed for delay sampling; pass a dedicated
    split. The FIFO watermark of a directed channel is created on its
    first send, in an open-addressing table keyed by [src * n + dst]
    (hashed by {!Int_hash}) whose values are stored unboxed, so memory
    follows touched links instead of N² (universes of 10⁶ sites run) and
    a send's watermark update writes a float in place. [faults] defaults to
    {!no_faults}; fault draws consume
    [fault_rng] (a fixed-seed generator when omitted), never [rng], so the
    delay stream is identical with and without faults.
    @raise Invalid_argument as {!validate}, and on [reorder > 0]: the
    paper's channels are FIFO. *)

val n : t -> int

val fault_plan : t -> fault_plan

val transmit : t -> src:int -> dst:int -> now:float -> verdict
(** Full fault-aware send: says how many copies survive, or why the
    message was lost; {!arrival} gives each copy's delivery time.
    Successive delivered copies on the same (src, dst) pair have
    non-decreasing times, preserving the FIFO channel guarantee even under
    random per-message delays: a copy arrives at [Float.max (now + delay
    + spike) watermark], where a channel not yet sent on (or reset by
    {!recover}) has watermark 0.0, so no copy is delivered before time 0
    and a NaN delay stays NaN. Lost messages do not advance the FIFO
    watermark. Under a trivial plan ({!is_trivial}) the partition, spike
    and fault draws are skipped, and a send under [Constant] delay
    allocates nothing. *)

val arrival : t -> int -> float
(** [arrival t i] is the delivery time of copy [i] (0, or 1 after
    [Duplicated]) of the last {!transmit} that delivered. Only valid until
    the next {!transmit}.
    @raise Invalid_argument unless [i] is 0 or 1. *)

val delivery_time : t -> src:int -> dst:int -> now:float -> float option
(** Compatibility wrapper over {!transmit}: the first surviving copy's
    delivery timestamp, or [None] if the message was lost for any reason
    (endpoint down, partition, or injected loss). Duplicate copies are
    dropped; use {!transmit} to schedule them. *)

val partition_edges : t -> (float * bool) list
(** Every scheduled partition boundary as [(time, is_heal)], split events
    first per partition. Infinite heals are omitted. *)

val crash : t -> int -> unit
(** Mark a site fail-stopped. Idempotent. *)

val recover : t -> int -> unit
(** Bring a crashed site back. Its channels restart empty: the per-pair
    FIFO delivery watermarks touching the site are reset, so the rejoined
    site's first messages are not artificially delayed behind pre-crash
    traffic. *)

val is_up : t -> int -> bool
val up_sites : t -> int list
