module Peers = Transport_sig.Peers

(* Frames buffered per unreachable peer; beyond this the oldest are
   dropped — the retry/ack layer recovers, as it would from real loss. *)
let max_pending = 4096

(* Redial backoff after a failed connect: 0.05 s, doubling to 1 s. *)
let min_backoff = 0.05
let max_backoff = 1.0

type link =
  | Down of float  (** unreachable; redial once the clock passes this *)
  | Connecting of Unix.file_descr  (** non-blocking connect in flight *)
  | Up of Unix.file_descr

(* the outbound half: we write, the peer reads *)
type peer = {
  id : int;
  addr : Unix.sockaddr;
  mutable link : link;
  mutable backoff : float;
  pending : string Queue.t;  (** framed bytes held while not [Up] *)
}

(* the inbound half: an accepted connection, read into its splitter *)
type conn = {
  fd : Unix.file_descr;
  split : Wire.Splitter.t;
  mutable src : int;  (** the sender, learnt from its Hello *)
}

type t = {
  cfg : Transport_sig.config;
  listen_fd : Unix.file_descr;
  peers : peer list;
  mutable conns : conn list;
  book : Peers.t;
  mutable closed : bool;
}

let stats t = Peers.stats t.book
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- receiving ---- *)

let drop_conn t c =
  close_quietly c.fd;
  t.conns <- List.filter (fun c' -> c' != c) t.conns

(* Read what [c] has and queue every complete frame. End of stream or a
   read error closes the connection; so does a corrupt length prefix or
   an undecodable payload, which also count as undecodable. *)
let read_conn t c =
  let rec frames () =
    match Wire.Splitter.next c.split with
    | None -> ()
    | Some (Error _) ->
      Peers.undecodable t.book;
      drop_conn t c
    | Some (Ok (frame, n)) ->
      (match Transport_sig.frame_src frame with -1 -> () | s -> c.src <- s);
      Peers.deliver t.book ~src:c.src frame n;
      frames ()
  in
  match Wire.Splitter.fill c.split (Unix.read c.fd) with
  | 0 -> drop_conn t c
  | _ -> frames ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> drop_conn t c

let rec accept_all t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ ->
    Unix.set_nonblock fd;
    Unix.setsockopt fd TCP_NODELAY true;
    t.conns <- { fd; split = Wire.Splitter.create (); src = -1 } :: t.conns;
    accept_all t
  | exception Unix.Unix_error _ -> ()

(* Serve the inbound sockets [select] reported readable. *)
let serve_inbound t readable =
  if List.memq t.listen_fd readable then accept_all t;
  List.iter (fun c -> if List.memq c.fd readable then read_conn t c) t.conns

let inbound_fds t = t.listen_fd :: List.map (fun c -> c.fd) t.conns

(* ---- sending ---- *)

(* Write all of [s]. While the socket is full, wait in [select] for it to
   drain and read every inbound connection meanwhile, so two owners
   writing to each other both make progress.
   @raise Unix.Unix_error on a dead connection. *)
let rec write_all t fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all t fd s (off + n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      (match Unix.select (inbound_fds t) [ fd ] [] (-1.0) with
      | readable, _, _ -> serve_inbound t readable
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      write_all t fd s off
    | exception Unix.Unix_error (EINTR, _, _) -> write_all t fd s off

let enqueue_pending p s =
  Queue.push s p.pending;
  if Queue.length p.pending > max_pending then ignore (Queue.pop p.pending)

(* Dial again [p.backoff] from now, and back off further. *)
let retry_later p =
  p.link <- Down (Unix.gettimeofday () +. p.backoff);
  p.backoff <- Float.min max_backoff (Float.max min_backoff (2.0 *. p.backoff))

(* A connect failed: close its socket and back off. *)
let failed p fd =
  close_quietly fd;
  retry_later p

(* Lost the connection: redial on the next poll. *)
let link_down p fd =
  p.backoff <- 0.0;
  failed p fd

let send_to_peer t p s =
  match p.link with
  | Up fd -> (
    match write_all t fd s 0 with
    | () -> Peers.sent t.book (String.length s)
    | exception Unix.Unix_error _ ->
      link_down p fd;
      enqueue_pending p s)
  | Down _ | Connecting _ -> enqueue_pending p s

(* Send to each of [peers]. A frame the receiver would reject as a
   corrupt length prefix is refused here instead, and counted. *)
let send_to t peers frame =
  let s = Wire.framed frame in
  if String.length s - 4 > Wire.max_frame then Peers.oversize t.book
  else List.iter (fun p -> send_to_peer t p s) peers

let send t ~dst frame =
  send_to t (List.filter (fun p -> p.id = dst) t.peers) frame

let broadcast t frame = send_to t t.peers frame

(* ---- dialling ---- *)

(* The connection is open: introduce ourselves, then flush in order what
   was queued while the peer was unreachable. *)
let connected t p fd =
  Unix.setsockopt fd TCP_NODELAY true;
  let hello = Wire.Hello { site = t.cfg.self; inc = t.cfg.hello_inc } in
  match write_all t fd (Wire.framed hello) 0 with
  | exception Unix.Unix_error _ -> failed p fd
  | () -> (
    p.link <- Up fd;
    p.backoff <- min_backoff;
    Peers.connected t.book;
    try
      while not (Queue.is_empty p.pending) do
        let s = Queue.peek p.pending in
        write_all t fd s 0;
        ignore (Queue.pop p.pending);
        Peers.sent t.book (String.length s)
      done
    with Unix.Unix_error _ -> link_down p fd)

let dial t p =
  match Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> retry_later p
  | fd -> (
    Unix.set_nonblock fd;
    match Unix.connect fd p.addr with
    | () -> connected t p fd
    | exception Unix.Unix_error ((EINPROGRESS | EAGAIN | EINTR), _, _) ->
      p.link <- Connecting fd
    | exception Unix.Unix_error _ -> failed p fd)

(* ---- the owner's poll ---- *)

(* One [select] over every socket: accept and read the inbound ones,
   complete connects in flight, and notice an outbound connection the
   peer closed (it never writes, so readable means end of stream). With
   [redial], first start a connect to every peer whose backoff ran out. *)
let pump t ~redial ~timeout =
  let now = Unix.gettimeofday () in
  List.iter
    (fun p ->
      match p.link with Down at when redial && now >= at -> dial t p | _ -> ())
    t.peers;
  let fds f = List.filter_map (fun p -> f p.link) t.peers in
  let up = fds (function Up fd -> Some fd | _ -> None)
  and connecting = fds (function Connecting fd -> Some fd | _ -> None) in
  match Unix.select (up @ inbound_fds t) connecting [] timeout with
  | exception Unix.Unix_error _ -> ()
  | readable, writable, _ ->
    List.iter
      (fun p ->
        match p.link with
        | Connecting fd when List.memq fd writable -> (
          match Unix.getsockopt_error fd with
          | None -> connected t p fd
          | Some _ -> failed p fd)
        | Up fd when List.memq fd readable -> (
          match Unix.read fd (Bytes.create 256) 0 256 with
          | 0 -> link_down p fd
          | _ | (exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)) -> ()
          | exception Unix.Unix_error _ -> link_down p fd)
        | _ -> ())
      t.peers;
    serve_inbound t readable

let poll t =
  if Peers.idle t.book && not t.closed then pump t ~redial:true ~timeout:0.0;
  Peers.poll t.book

(* ---- lifecycle ---- *)

let create (cfg : Transport_sig.config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen_fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd SO_REUSEADDR true;
     Unix.bind listen_fd (ADDR_INET (Unix.inet_addr_loopback, cfg.listen_port));
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     close_quietly listen_fd;
     raise e);
  let peer (id, addr) =
    { id; addr; link = Down 0.0; backoff = min_backoff; pending = Queue.create () }
  in
  let t =
    {
      cfg;
      listen_fd;
      peers = List.map peer cfg.peers;
      conns = [];
      book = Peers.create ();
      closed = false;
    }
  in
  List.iter (dial t) t.peers;
  t

(* Give connects in flight up to a second to deliver the frames queued
   behind them, then close. *)
let close t =
  if not t.closed then begin
    let deadline = Unix.gettimeofday () +. 1.0 in
    let in_flight p = match p.link with Connecting _ -> true | _ -> false in
    while List.exists in_flight t.peers && Unix.gettimeofday () < deadline do
      pump t ~redial:false
        ~timeout:(Float.max 0.0 (deadline -. Unix.gettimeofday ()))
    done;
    t.closed <- true;
    close_quietly t.listen_fd;
    List.iter (fun c -> close_quietly c.fd) t.conns;
    List.iter
      (fun p ->
        (match p.link with Up fd | Connecting fd -> close_quietly fd | Down _ -> ());
        p.link <- Down Float.infinity)
      t.peers
  end
