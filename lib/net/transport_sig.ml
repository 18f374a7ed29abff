type event =
  | Frame of { src : int; frame : Wire.frame }
  | Peer_down of int
  | Peer_up of int

type config = {
  self : int;
  listen_port : int;
  peers : (int * Unix.sockaddr) list;
  hb_period : float;
  hb_timeout : float;
  watch : int list;
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
  silences : int;
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
    silences = 0;
  }

let stats_alist ~prefix s =
  List.filter
    (fun (_, v) -> v > 0)
    [
      (prefix ^ ".sent", s.frames_sent);
      (prefix ^ ".received", s.frames_received);
      (prefix ^ ".oversize", s.oversize_dropped);
      (prefix ^ ".undecodable", s.undecodable);
      (prefix ^ ".bytes_sent", s.bytes_sent);
      (prefix ^ ".bytes_received", s.bytes_received);
      (prefix ^ ".connects", s.connects);
      (prefix ^ ".silences", s.silences);
    ]

module type S = sig
  type t

  val create : config -> t
  val send : t -> dst:int -> Wire.frame -> unit
  val broadcast : t -> Wire.frame -> unit
  val poll : t -> event option
  val stats : t -> stats
  val close : t -> unit
end

type handle = {
  send : dst:int -> Wire.frame -> unit;
  broadcast : Wire.frame -> unit;
  poll : unit -> event option;
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
   polled at snapshot time only — the transport keeps its own atomics and
   pays nothing extra on the hot path. *)
let register_obs ?labels reg ~prefix (h : handle) =
  let p name read = Dmx_obs.Registry.probe ?labels reg (prefix ^ name) (fun () -> read (h.stats ())) in
  p ".sent" (fun s -> s.frames_sent);
  p ".received" (fun s -> s.frames_received);
  p ".oversize" (fun s -> s.oversize_dropped);
  p ".undecodable" (fun s -> s.undecodable);
  p ".bytes_sent" (fun s -> s.bytes_sent);
  p ".bytes_received" (fun s -> s.bytes_received);
  p ".connects" (fun s -> s.connects);
  p ".silences" (fun s -> s.silences)

(* ---- shared event-queue + silence-detection state ----

   Both concrete transports (TCP streams, UDP datagrams) hand delivery
   and failure detection through the same machinery: reader threads push
   events and record when each peer was last heard; the owner's [poll]
   drains the queue and, at most once per [hb_period], scans the watched
   peers for heartbeat silence. Heartbeat *emission* is the owner's job
   (through the possibly chaos-wrapped handle), so injected faults apply
   to heartbeats exactly as to protocol traffic. *)

module Peers = struct
  type t = {
    cfg : config;
    lock : Mutex.t;
    events : event Queue.t;
    last_heard : (int, float) Hashtbl.t;
    suspected : (int, bool) Hashtbl.t;
    started : float;
    mutable last_check : float;
    mutable silences : int;  (* Peer_down transitions ever signalled *)
  }

  let create cfg =
    let now = Unix.gettimeofday () in
    {
      cfg;
      lock = Mutex.create ();
      events = Queue.create ();
      last_heard = Hashtbl.create 16;
      suspected = Hashtbl.create 16;
      started = now;
      last_check = now;
      silences = 0;
    }

  let silences t =
    Mutex.lock t.lock;
    let v = t.silences in
    Mutex.unlock t.lock;
    v

  let push t ev =
    Mutex.lock t.lock;
    Queue.push ev t.events;
    Mutex.unlock t.lock

  (* A frame arrived from [src]: refresh its liveness, and retract any
     standing suspicion. *)
  let heard t src =
    if src >= 0 then begin
      Mutex.lock t.lock;
      Hashtbl.replace t.last_heard src (Unix.gettimeofday ());
      let was_suspected =
        match Hashtbl.find_opt t.suspected src with Some b -> b | None -> false
      in
      if was_suspected then begin
        Hashtbl.replace t.suspected src false;
        Queue.push (Peer_up src) t.events
      end;
      Mutex.unlock t.lock
    end

  let check_silence_locked t =
    let now = Unix.gettimeofday () in
    if t.cfg.hb_period > 0.0 && now -. t.last_check >= t.cfg.hb_period then begin
      t.last_check <- now;
      List.iter
        (fun id ->
          let last =
            match Hashtbl.find_opt t.last_heard id with
            | Some ts -> ts
            | None -> t.started (* grace period from transport start *)
          in
          let suspected =
            match Hashtbl.find_opt t.suspected id with
            | Some b -> b
            | None -> false
          in
          if (not suspected) && now -. last > t.cfg.hb_timeout then begin
            Hashtbl.replace t.suspected id true;
            t.silences <- t.silences + 1;
            Queue.push (Peer_down id) t.events
          end)
        t.cfg.watch
    end

  let poll t =
    Mutex.lock t.lock;
    check_silence_locked t;
    let ev =
      if Queue.is_empty t.events then None else Some (Queue.pop t.events)
    in
    Mutex.unlock t.lock;
    ev
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
