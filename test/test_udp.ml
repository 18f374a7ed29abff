(* Unit tests for the UDP datagram transport: loopback round-trips, the
   oversize send guard, undecodable-datagram resilience, and
   heartbeat-silence detection through the shared Peers machinery. *)

module Sig = Dmx_net.Transport_sig
module Udp = Dmx_net.Udp
module Wire = Dmx_net.Wire

let free_udp_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let cfg ~self ~listen_port ~peers ?(hb_timeout = 10.0) ?(watch = []) () =
  {
    Sig.self;
    listen_port;
    peers;
    hb_period = 0.02;
    hb_timeout;
    watch;
    hello_inc = 0.0;
  }

(* drain [t]'s poll until [pred] accepts an event, or fail at deadline *)
let poll_for ?(timeout = 5.0) t pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Udp.poll t with
    | Some ev when pred ev -> ev
    | _ ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

let test_roundtrip () =
  let pa = free_udp_port () and pb = free_udp_port () in
  let a = Udp.create (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = Udp.create (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Udp.close a;
      Udp.close b)
    (fun () ->
      Udp.send a ~dst:1 (Wire.Sproto { shard = 0; src = 0; dst = 1; payload = "ping" });
      (match
         poll_for b
           (function Sig.Frame _ -> true | _ -> false)
           "frame at b"
       with
      | Sig.Frame { src; frame = Wire.Sproto { payload; _ } } ->
        Alcotest.(check int) "src learned from frame" 0 src;
        Alcotest.(check string) "payload intact" "ping" payload
      | _ -> Alcotest.fail "unexpected event");
      Udp.send b ~dst:0 (Wire.Sproto { shard = 0; src = 1; dst = 0; payload = "pong" });
      (match
         poll_for a
           (function Sig.Frame _ -> true | _ -> false)
           "frame at a"
       with
      | Sig.Frame { frame = Wire.Sproto { payload; _ }; _ } ->
        Alcotest.(check string) "reply intact" "pong" payload
      | _ -> Alcotest.fail "unexpected event");
      let sa = Udp.stats a in
      Alcotest.(check bool) "a counted a send" true (sa.Sig.frames_sent >= 1);
      Alcotest.(check bool) "a counted a receive" true
        (sa.Sig.frames_received >= 1))

let test_broadcast () =
  let pa = free_udp_port ()
  and pb = free_udp_port ()
  and pc = free_udp_port () in
  let a =
    Udp.create
      (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb); (2, addr pc) ] ())
  in
  let b = Udp.create (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  let c = Udp.create (cfg ~self:2 ~listen_port:pc ~peers:[ (0, addr pa) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Udp.close a;
      Udp.close b;
      Udp.close c)
    (fun () ->
      Udp.broadcast a (Wire.Heartbeat { site = 0; time = 0.0 });
      List.iter
        (fun t ->
          ignore
            (poll_for t
               (function
                 | Sig.Frame { frame = Wire.Heartbeat { site = 0; _ }; _ } ->
                   true
                 | _ -> false)
               "broadcast heartbeat"))
        [ b; c ])

let test_oversize_guard () =
  let pa = free_udp_port () and pb = free_udp_port () in
  let a = Udp.create (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = Udp.create (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  Fun.protect
    ~finally:(fun () ->
      Udp.close a;
      Udp.close b)
    (fun () ->
      let huge = String.make (Udp.max_datagram + 1) 'x' in
      Udp.send a ~dst:1 (Wire.Sproto { shard = 0; src = 0; dst = 1; payload = huge });
      Alcotest.(check int) "oversize counted, not sent" 1
        (Udp.stats a).Sig.oversize_dropped;
      Alcotest.(check int) "nothing went out" 0 (Udp.stats a).Sig.frames_sent;
      (* the link still works afterwards *)
      Udp.send a ~dst:1 (Wire.Sproto { shard = 0; src = 0; dst = 1; payload = "ok" });
      ignore
        (poll_for b
           (function
             | Sig.Frame { frame = Wire.Sproto { payload = "ok"; _ }; _ } -> true
             | _ -> false)
           "frame after oversize"))

let test_undecodable_dropped () =
  let pb = free_udp_port () in
  let b = Udp.create (cfg ~self:1 ~listen_port:pb ~peers:[] ()) in
  Fun.protect
    ~finally:(fun () -> Udp.close b)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
      let junk = "\xff\x00garbage datagram" in
      ignore
        (Unix.sendto fd (Bytes.of_string junk) 0 (String.length junk) []
           (addr pb));
      Unix.close fd;
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait () =
        if (Udp.stats b).Sig.undecodable >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "undecodable datagram never counted"
        else begin
          ignore (Udp.poll b);
          Thread.delay 0.01;
          wait ()
        end
      in
      wait ();
      Alcotest.(check int) "no frame surfaced" 0 (Udp.stats b).Sig.frames_received)

let test_silence_detection () =
  let pa = free_udp_port () and pb = free_udp_port () in
  let a = Udp.create (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b =
    Udp.create
      (cfg ~self:1 ~listen_port:pb
         ~peers:[ (0, addr pa) ]
         ~hb_timeout:0.25 ~watch:[ 0 ] ())
  in
  Fun.protect
    ~finally:(fun () ->
      Udp.close a;
      Udp.close b)
    (fun () ->
      (* a speaks once, then goes silent: b must suspect it *)
      Udp.send a ~dst:1 (Wire.Heartbeat { site = 0; time = 0.0 });
      ignore
        (poll_for b (function Sig.Frame _ -> true | _ -> false) "first frame");
      (match poll_for b (function Sig.Peer_down 0 -> true | _ -> false)
               "Peer_down 0"
       with
      | Sig.Peer_down 0 -> ()
      | _ -> Alcotest.fail "unexpected event");
      (* a speaks again: suspicion is retracted *)
      Udp.send a ~dst:1 (Wire.Heartbeat { site = 0; time = 0.0 });
      match poll_for b (function Sig.Peer_up 0 -> true | _ -> false) "Peer_up 0"
      with
      | Sig.Peer_up 0 -> ()
      | _ -> Alcotest.fail "unexpected event")

let test_factory () =
  let pa = free_udp_port () in
  let c = cfg ~self:0 ~listen_port:pa ~peers:[] () in
  (match Dmx_net.Transports.create "udp" c with
  | Ok h -> h.Sig.close ()
  | Error e -> Alcotest.failf "udp factory failed: %s" e);
  (match Dmx_net.Transports.create "tcp" c with
  | Ok h -> h.Sig.close ()
  | Error e -> Alcotest.failf "tcp factory failed: %s" e);
  match Dmx_net.Transports.create "carrier-pigeon" c with
  | Ok _ -> Alcotest.fail "unknown transport accepted"
  | Error _ -> ()

let suite =
  [
    Alcotest.test_case "loopback round-trip" `Quick test_roundtrip;
    Alcotest.test_case "broadcast reaches all peers" `Quick test_broadcast;
    Alcotest.test_case "oversize sends are refused and counted" `Quick
      test_oversize_guard;
    Alcotest.test_case "undecodable datagrams dropped cleanly" `Quick
      test_undecodable_dropped;
    Alcotest.test_case "heartbeat silence raises Peer_down/Peer_up" `Quick
      test_silence_detection;
    Alcotest.test_case "transport factory resolves names" `Quick test_factory;
  ]
