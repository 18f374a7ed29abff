(* UDP datagram transport: one frame per datagram, no length prefix — the
   datagram boundary is the frame boundary; the payload is exactly what
   [Wire.encode] produced (version byte first). Loss, duplication and
   reordering are genuinely possible here, which is the point: the
   retry/ack layer ([Dmx_core.Reliable]) has to earn its keep. *)

(* Largest payload a UDP/IPv4 datagram can carry (65535 - 8 - 20). *)
let max_datagram = 65507

type peer = {
  id : int;
  mutable fd : Unix.file_descr option;
  addr : Unix.sockaddr;
}

module Peers = Transport_sig.Peers

type t = {
  recv_fd : Unix.file_descr;
  peers : peer list;
  book : Peers.t;
  buf : Bytes.t;  (* one datagram, with a byte to spare *)
  mutable closed : bool;
}

let stats t = Peers.stats t.book

(* ---- sending: per-peer connected sockets, opened lazily ---- *)

let peer_fd p =
  (if p.fd = None then
     match Unix.socket ~cloexec:true PF_INET SOCK_DGRAM 0 with
     | exception Unix.Unix_error _ -> ()
     | fd -> (
       try
         Unix.connect fd p.addr;
         p.fd <- Some fd
       with Unix.Unix_error _ -> Unix.close fd));
  p.fd

let send_to t peers frame =
  let payload = Wire.encode frame in
  let len = String.length payload in
  if len > max_datagram then Peers.oversize t.book
  else if not t.closed then
    List.iter
      (fun p ->
        match peer_fd p with
        | None -> ()
        | Some fd -> (
          (* connected socket: plain [write] is a datagram send; any error
             (ICMP port unreachable surfacing as ECONNREFUSED, ...) is just
             loss — the reliability layer retries *)
          match Unix.write_substring fd payload 0 len with
          | _ -> Peers.sent t.book len
          | exception Unix.Unix_error _ -> ()))
      peers

let send t ~dst frame =
  send_to t (List.filter (fun p -> p.id = dst) t.peers) frame

let broadcast t frame = send_to t t.peers frame

(* ---- receiving: the owner drains the bound socket inside [poll] ---- *)

(* Read every datagram the socket holds, each decoded in isolation. The
   socket is non-blocking, so the read that finds it empty ends the loop;
   a zero-timeout [select] first would only add a system call. *)
let rec receive t =
  match Unix.recvfrom t.recv_fd t.buf 0 (Bytes.length t.buf) [] with
  | exception Unix.Unix_error _ -> ()
  | n, _ ->
    (if n > 0 then
       match Wire.decode (Bytes.sub_string t.buf 0 n) with
       | Error _ -> Peers.undecodable t.book
       | Ok frame ->
         Peers.deliver t.book ~src:(Transport_sig.frame_src frame) frame n);
    receive t

let poll t =
  if Peers.idle t.book && not t.closed then receive t;
  Peers.poll t.book

(* ---- lifecycle ---- *)

let create (cfg : Transport_sig.config) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let recv_fd = Unix.socket ~cloexec:true PF_INET SOCK_DGRAM 0 in
  Unix.setsockopt recv_fd SO_REUSEADDR true;
  (* a node drains its socket between protocol steps; buffer bursts
     (quorum-wide broadcasts x retransmits) rather than dropping them at
     the kernel on top of the loss we inject on purpose *)
  (try Unix.setsockopt_int recv_fd SO_RCVBUF (4 * 1024 * 1024)
   with Unix.Unix_error _ -> ());
  (try
     Unix.bind recv_fd (ADDR_INET (Unix.inet_addr_loopback, cfg.listen_port));
     Unix.set_nonblock recv_fd
   with e ->
     (try Unix.close recv_fd with Unix.Unix_error _ -> ());
     raise e);
  {
    recv_fd;
    peers = List.map (fun (id, addr) -> { id; fd = None; addr }) cfg.peers;
    book = Peers.create ();
    buf = Bytes.create (max_datagram + 1);
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.close t.recv_fd with Unix.Unix_error _ -> ());
    List.iter
      (fun p ->
        Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) p.fd;
        p.fd <- None)
      t.peers
  end
