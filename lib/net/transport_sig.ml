type config = {
  self : int;
  listen_port : int;
  peers : (int * Unix.sockaddr) list;
  hello_inc : float;
}

type stats = {
  frames_sent : int;
  frames_received : int;
  oversize_dropped : int;
  undecodable : int;
  bytes_sent : int;
  bytes_received : int;
  connects : int;
}

let no_stats =
  {
    frames_sent = 0;
    frames_received = 0;
    oversize_dropped = 0;
    undecodable = 0;
    bytes_sent = 0;
    bytes_received = 0;
    connects = 0;
  }

(* every counter, under its metric-name suffix, in one order for the
   Metrics frame and the registry *)
let fields =
  [
    (".sent", fun s -> s.frames_sent);
    (".received", fun s -> s.frames_received);
    (".oversize", fun s -> s.oversize_dropped);
    (".undecodable", fun s -> s.undecodable);
    (".bytes_sent", fun s -> s.bytes_sent);
    (".bytes_received", fun s -> s.bytes_received);
    (".connects", fun s -> s.connects);
  ]

let stats_alist ~prefix s =
  List.filter_map
    (fun (name, read) ->
      match read s with 0 -> None | v -> Some (prefix ^ name, v))
    fields

module type S = sig
  type t

  val create : config -> t
  val send : t -> dst:int -> Wire.frame -> unit
  val broadcast : t -> Wire.frame -> unit
  val poll : t -> (int * Wire.frame) option
  val stats : t -> stats
  val close : t -> unit
end

type handle = {
  send : dst:int -> Wire.frame -> unit;
  broadcast : Wire.frame -> unit;
  poll : unit -> (int * Wire.frame) option;
  stats : unit -> stats;
  close : unit -> unit;
}

let handle (type a) (module T : S with type t = a) (t : a) =
  {
    send = (fun ~dst frame -> T.send t ~dst frame);
    broadcast = (fun frame -> T.broadcast t frame);
    poll = (fun () -> T.poll t);
    stats = (fun () -> T.stats t);
    close = (fun () -> T.close t);
  }

(* Register every stats field of a handle as registry probes. Probes are
   polled at snapshot time only, possibly from the scrape endpoint's
   thread: the transports keep these counters in atomics and pay nothing
   extra on the hot path. *)
let register_obs ?labels reg ~prefix (h : handle) =
  List.iter
    (fun (name, read) ->
      Dmx_obs.Registry.probe ?labels reg (prefix ^ name) (fun () ->
          read (h.stats ())))
    fields

(* ---- shared frame queue and counters ----

   Both transports feed this from their [poll], on the owner's thread:
   each frame is counted and queued with its sender, and [poll] drains
   the queue. Heartbeats and failure detection are the owner's. *)

module Peers = struct
  type t = {
    frames : (int * Wire.frame) Queue.t;
    (* counters, read by registry probes from the scrape thread *)
    sent : int Atomic.t;
    received : int Atomic.t;
    oversize : int Atomic.t;
    undecodable : int Atomic.t;
    bytes_sent : int Atomic.t;
    bytes_received : int Atomic.t;
    connects : int Atomic.t;
  }

  let create () =
    let z () = Atomic.make 0 in
    {
      frames = Queue.create ();
      sent = z ();
      received = z ();
      oversize = z ();
      undecodable = z ();
      bytes_sent = z ();
      bytes_received = z ();
      connects = z ();
    }

  let stats t =
    let g = Atomic.get in
    {
      frames_sent = g t.sent;
      frames_received = g t.received;
      oversize_dropped = g t.oversize;
      undecodable = g t.undecodable;
      bytes_sent = g t.bytes_sent;
      bytes_received = g t.bytes_received;
      connects = g t.connects;
    }

  let sent t bytes =
    Atomic.incr t.sent;
    ignore (Atomic.fetch_and_add t.bytes_sent bytes)

  let oversize t = Atomic.incr t.oversize
  let undecodable t = Atomic.incr t.undecodable
  let connected t = Atomic.incr t.connects
  let idle t = Queue.is_empty t.frames

  let deliver t ~src frame bytes =
    Atomic.incr t.received;
    ignore (Atomic.fetch_and_add t.bytes_received bytes);
    Queue.push (src, frame) t.frames

  let poll t = Queue.take_opt t.frames
end

(* Learn the sending site from any frame carrying a source field; [-1]
   when the frame is anonymous. Shared by every reader. *)
let frame_src (frame : Wire.frame) =
  match frame with
  | Wire.Hello { site; _ }
  | Wire.Heartbeat { site; _ }
  | Wire.Metrics { site; _ }
  | Wire.Metrics_v2 { site; _ } ->
    site
  | Wire.Sproto { src; _ } -> src
  | Wire.Strace { site; _ } -> site
  | Wire.Workload _ | Wire.Shutdown -> -1
  (* session control frames are anonymous: the client side of the service
     is not a site, and nodes answer on the link the frame arrived on *)
  | Wire.Open_session _ | Wire.Acquire _ | Wire.Release_lock _
  | Wire.Renew _ | Wire.Grant _ | Wire.Deny _ | Wire.Expire _ ->
    -1
