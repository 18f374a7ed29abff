(** The transport abstraction of the networked runtime.

    A transport moves {!Wire.frame}s between a fixed set of peers and
    hands the owner each inbound frame with its sender. The service
    daemon and its driver program against the first-class {!handle}, so
    any implementation of {!S} — TCP streams ({!Transport}), UDP
    datagrams ({!Udp}), or either wrapped in the {!Chaos} fault shim —
    slots in without touching them.

    Every implementation is single-threaded and polled by its owner: it
    starts no thread and takes no lock, and its sockets are read only
    inside [poll] (and, on TCP, inside a [send] waiting for room). The
    division of labour is the same for all of them:

    - {e delivery} is the transport's: [poll] reads whatever its sockets
      have ready, without blocking, and hands back one frame at a time;
    - {e heartbeats and failure detection} are the owner's: the service
      daemon broadcasts {!Wire.frame.Heartbeat} every heartbeat period
      through its (possibly chaos-wrapped) handle, feeds every frame's
      sender to a {!Dmx_sim.Detector}, and sweeps it on the same period,
      so injected loss, partitions and delays starve the failure
      detector exactly as a hostile network would. *)

type config = {
  self : int;  (** this participant's site id ([n] for the supervisor) *)
  listen_port : int;
  peers : (int * Unix.sockaddr) list;  (** send targets *)
  hello_inc : float;
      (** incarnation number stamped on outbound [Hello]s; a restarted
          node uses a fresh (larger) value so the supervisor can tell a
          new life from a reconnect of the old one *)
}

(** Transport-level delivery counters (protocol-blind; the reliability
    layer keeps its own, see {!Dmx_core.Reliable.stats}). *)
type stats = {
  frames_sent : int;  (** frames actually handed to the kernel *)
  frames_received : int;  (** frames decoded and delivered to the owner *)
  oversize_dropped : int;
      (** sends refused by a size guard (the UDP datagram bound, or
          {!Wire.max_frame} on TCP) *)
  undecodable : int;
      (** inbound payloads {!Wire.decode} rejected, and on TCP corrupt
          length prefixes *)
  bytes_sent : int;  (** wire bytes out (frame payloads + any framing) *)
  bytes_received : int;  (** wire bytes in, decoded frames only *)
  connects : int;  (** successful outbound connection establishments
                       (TCP dials; 0 on datagram transports) *)
}

val no_stats : stats

val stats_alist : prefix:string -> stats -> (string * int) list
(** Nonzero counters as [(prefix ^ ".sent", v); ...] pairs, ready for the
    {!Wire.frame.Metrics} [reliable] list. *)

(** What a transport implementation provides. *)
module type S = sig
  type t

  val create : config -> t
  (** Binds the listen socket; starts no thread.
      @raise Unix.Unix_error if the port cannot be bound. *)

  val send : t -> dst:int -> Wire.frame -> unit
  (** Best-effort, never blocks on a dead peer, never raises on delivery
      failure. Unknown [dst] is a silent no-op. *)

  val broadcast : t -> Wire.frame -> unit
  (** {!send} to every configured peer. *)

  val poll : t -> (int * Wire.frame) option
  (** The next inbound frame and its sender, if any. When none is
      queued, first reads what the sockets have ready. Never blocks.
      The sender is the site the frame itself names (or, on TCP, the
      connection's [Hello]); [-1] when unknown. *)

  val stats : t -> stats

  val close : t -> unit
  (** Close every socket the transport owns, each exactly once.
      Idempotent. *)
end

(** A transport instance with its type packed away — what the service
    daemon and its driver actually hold. *)
type handle = {
  send : dst:int -> Wire.frame -> unit;
  broadcast : Wire.frame -> unit;
  poll : unit -> (int * Wire.frame) option;
  stats : unit -> stats;
  close : unit -> unit;
}

val handle : (module S with type t = 'a) -> 'a -> handle
(** Pack a concrete transport into a {!handle}. *)

val register_obs :
  ?labels:(string * string) list ->
  Dmx_obs.Registry.t ->
  prefix:string ->
  handle ->
  unit
(** Register every field of the handle's {!stats} as counter probes named
    [prefix ^ ".sent"], [".received"], [".oversize"], [".undecodable"],
    [".bytes_sent"], [".bytes_received"], [".connects"].
    Probes are polled only at snapshot time, possibly from a scrape
    endpoint's thread, so the counters behind them are atomics. *)

(** Shared implementation helper: the inbound frame queue and the
    counters every transport embeds. Not for transport owners. *)
module Peers : sig
  type t

  val create : unit -> t
  val stats : t -> stats

  (** Count a frame of this many wire bytes handed to the kernel, a send
      refused for its size, an undecodable input, an outbound connect. *)

  val sent : t -> int -> unit
  val oversize : t -> unit
  val undecodable : t -> unit
  val connected : t -> unit

  val deliver : t -> src:int -> Wire.frame -> int -> unit
  (** A frame of this many wire bytes arrived from [src]: count it and
      queue it. *)

  val idle : t -> bool
  (** No frame is queued. *)

  val poll : t -> (int * Wire.frame) option
  (** Take the oldest queued frame. *)
end

val frame_src : Wire.frame -> int
(** The sending site a frame itself names; [-1] for anonymous frames
    ([Workload], [Shutdown], and the session control frames, whose
    client senders are not sites). *)
