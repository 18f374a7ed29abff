(** Protocol interface between the simulation engine and a distributed
    mutual exclusion algorithm.

    A protocol is a per-site state machine driven by four stimuli: an
    application request for the CS, message delivery, timer expiry, and
    failure-detector notifications. The engine owns time, the network and
    the CS itself; the protocol signals readiness through [ctx.enter_cs]
    and is told to relinquish through [release_cs] when the application
    leaves the CS. *)

type site_id = int

(** Capabilities the engine hands to every protocol callback. A context is
    bound to one site; [send] routes through the simulated network (messages
    to self are delivered locally at the current instant and are not counted
    as network messages, matching the paper's (K-1) message counts). *)
type 'msg ctx = {
  self : site_id;
  n : int;  (** number of sites in the system *)
  now : unit -> float;
  send : dst:site_id -> 'msg -> unit;
  enter_cs : unit -> unit;
      (** The protocol has collected all permissions; the engine checks the
          mutual exclusion invariant and starts the CS. *)
  set_timer : delay:float -> tag:int -> unit;
  rng : Rng.t;  (** per-site deterministic stream *)
  trace_note : string -> unit;
  trace_event : Trace.kind -> unit;
      (** Structured trace hook for the semantic permission events
          ({!Trace.Acquire}, {!Trace.Cede}, ...) the {!Oracle} checks.
          A no-op outside the tracing engine; protocols call it
          unconditionally. *)
  mark_parked : bool -> unit;
      (** Graceful-degradation accounting: [mark_parked true] tells the
          engine this site's outstanding request cannot currently make
          progress (no live quorum); [mark_parked false] ends the window.
          The engine aggregates the windows as unavailability time. *)
}

module type PROTOCOL = sig
  type config
  (** Static per-run parameters (e.g. the coterie), shared by all sites. *)

  type state
  (** Per-site protocol state. *)

  type message

  val name : string
  val describe : config -> string

  val message_kind : message -> string
  (** Coarse message class for per-kind counting ("request", "reply", ...).
      Piggybacked combinations count as one message of a combined kind, as
      in the paper's analysis. *)

  val pp_message : Format.formatter -> message -> unit

  val init : message ctx -> config -> state

  val on_message : message ctx -> state -> src:site_id -> message -> unit

  val request_cs : message ctx -> state -> unit
  (** The application at this site wants the CS. The engine guarantees the
      site has no outstanding request and is not in the CS. *)

  val release_cs : message ctx -> state -> unit
  (** The application finished its CS execution (paper step C). *)

  val on_timer : message ctx -> state -> int -> unit

  val on_failure : message ctx -> state -> site_id -> unit
  (** The failure detector reports that a site crashed. Non-fault-tolerant
      protocols may ignore this. *)

  val on_recovery : message ctx -> state -> site_id -> unit
  (** The failure detector reports that a crashed site rejoined with a
      fresh state (fail-stop recovery). Non-fault-tolerant protocols may
      ignore this. *)
end
