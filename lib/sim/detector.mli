(** Heartbeat/timeout failure detector.

    Each site periodically sends heartbeats to every other site and suspects
    a peer it has not heard from within [timeout]. Unlike the fail-stop
    oracle of [Engine.Oracle], this detector is {e unreliable}: message loss,
    partitions, and delay spikes can produce false suspicions, and a later
    heartbeat revokes them (a suspect/trust transition, in the terminology
    of Chandra–Toueg style eventually-perfect detectors).

    The module only tracks timing state; its owner sends the heartbeats
    and delivers suspicion/trust transitions to protocols as
    [on_failure] / [on_recovery] callbacks. Two owners share it: the
    engine's heartbeat mode on virtual time, and the live service daemon
    ([Dmx_service.Snode]) on the wall clock, fed by every frame it
    receives. *)

type config = { period : float; timeout : float }

val default : config
(** period = 2.0, timeout = 10.0 — conservative for the default
    uniform(0.5, 1.5) delay model. *)

val validate : config -> unit
(** @raise Invalid_argument unless [0 < period < timeout]. *)

val pp_config : Format.formatter -> config -> unit

type t

val create : config -> n:int -> self:int -> now:float -> t
(** A detector at site [self] observing [n] sites; all peers start trusted
    with [last_heard = now].
    @raise Invalid_argument unless [0 < period < timeout]. *)

val heartbeat : t -> src:int -> now:float -> bool
(** Record a heartbeat (or any message) from [src]. Returns [true] when this
    revokes a standing suspicion — a trust transition. A [src] outside
    [\[0, n)] is ignored (returns [false]): a live frame can name any
    site. *)

val sweep : t -> now:float -> int list
(** Check every peer's deadline; newly suspected sites, in ascending
    order. Already-suspected peers are not re-reported. *)

val reset : t -> now:float -> unit
(** Forget everything (used when the observing site restarts): all peers
    trusted, deadlines restarted at [now]. *)

val suspected : t -> int -> bool
val suspects : t -> int list
