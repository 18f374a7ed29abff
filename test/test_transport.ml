(* Unit tests for the transports, each case run over every name in
   [Transports.names]: loopback round-trips, the oversize send guard,
   undecodable-input resilience, descriptor ownership on close, and the
   sender [poll] names for each frame. TCP adds
   its stream cases: frames queued before the peer listens, a redial
   after a restart, and two owners writing megabytes to each other. *)

module Sig = Dmx_net.Transport_sig
module Udp = Dmx_net.Udp
module Wire = Dmx_net.Wire

let free_port name =
  let kind = if name = "udp" then Unix.SOCK_DGRAM else Unix.SOCK_STREAM in
  let fd = Unix.socket Unix.PF_INET kind 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  Unix.close fd;
  port

let addr port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let cfg ~self ~listen_port ~peers () =
  { Sig.self; listen_port; peers; hello_inc = 0.0 }

(* A transport under test and the frames polled from it so far, with
   their senders. The transports are polled by their owner, so a test
   drives every one of them: a TCP sender dials and flushes only inside
   its own [poll]. *)
type node = { h : Sig.handle; inbox : (int * Wire.frame) Queue.t }

let nodes = ref []

let node name c =
  let n = { h = Dmx_net.Transports.create_exn name c; inbox = Queue.create () } in
  nodes := n :: !nodes;
  n

let close_all () =
  List.iter (fun n -> n.h.Sig.close ()) !nodes;
  nodes := []

let tick () =
  List.iter
    (fun n ->
      let rec go () =
        match n.h.Sig.poll () with
        | Some ev ->
          Queue.push ev n.inbox;
          go ()
        | None -> ()
      in
      go ())
    !nodes

(* poll every node until [n] yields a frame [pred] accepts, discarding
   the frames before it, or fail at the deadline *)
let poll_for ?(timeout = 5.0) n pred what =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    tick ();
    let rec scan () =
      match Queue.take_opt n.inbox with
      | Some ev when pred ev -> Some ev
      | Some _ -> scan ()
      | None -> None
    in
    match scan () with
    | Some ev -> ev
    | None ->
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.01;
        go ()
      end
  in
  go ()

(* tick for [s] seconds *)
let settle s =
  let until = Unix.gettimeofday () +. s in
  while Unix.gettimeofday () < until do
    tick ();
    Thread.delay 0.01
  done

let with_nodes f = Fun.protect ~finally:close_all f

let sproto ~src ~dst payload = Wire.Sproto { shard = 0; src; dst; payload }

let is_payload p = function
  | (_, Wire.Sproto { payload; _ }) -> payload = p
  | _ -> false

let test_roundtrip name () =
  let pa = free_port name and pb = free_port name in
  let a = node name (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  with_nodes (fun () ->
      a.h.send ~dst:1 (sproto ~src:0 ~dst:1 "ping");
      (match
         poll_for b
           (function (_, Wire.Sproto _) -> true | _ -> false)
           "frame at b"
       with
      | (src, Wire.Sproto { payload; _ }) ->
        Alcotest.(check int) "src learned from frame" 0 src;
        Alcotest.(check string) "payload intact" "ping" payload
      | _ -> Alcotest.fail "unexpected frame");
      b.h.send ~dst:0 (sproto ~src:1 ~dst:0 "pong");
      (match
         poll_for a
           (function (_, Wire.Sproto _) -> true | _ -> false)
           "frame at a"
       with
      | (_, Wire.Sproto { payload; _ }) ->
        Alcotest.(check string) "reply intact" "pong" payload
      | _ -> Alcotest.fail "unexpected frame");
      let sa = a.h.stats () in
      Alcotest.(check bool) "a counted a send" true (sa.Sig.frames_sent >= 1);
      Alcotest.(check bool) "a counted a receive" true
        (sa.Sig.frames_received >= 1))

let test_broadcast name () =
  let pa = free_port name and pb = free_port name and pc = free_port name in
  let a =
    node name
      (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb); (2, addr pc) ] ())
  in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  let c = node name (cfg ~self:2 ~listen_port:pc ~peers:[ (0, addr pa) ] ()) in
  with_nodes (fun () ->
      a.h.broadcast (Wire.Heartbeat { site = 0; time = 0.0 });
      List.iter
        (fun n ->
          ignore
            (poll_for n
               (function
                 | (_, Wire.Heartbeat { site = 0; _ }) ->
                   true
                 | _ -> false)
               "broadcast heartbeat"))
        [ b; c ])

(* [poll] names each frame's sender, which the daemon's failure detector
   takes as proof of life: the site a frame names, or for an anonymous
   frame the site of the TCP link it came on ([-1] over UDP) *)
let test_poll_names_sender name () =
  let pa = free_port name and pb = free_port name and pc = free_port name in
  let a =
    node name
      (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb); (2, addr pc) ] ())
  in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  let c = node name (cfg ~self:2 ~listen_port:pc ~peers:[ (0, addr pa) ] ()) in
  with_nodes (fun () ->
      b.h.send ~dst:0 (sproto ~src:1 ~dst:0 "from b");
      c.h.send ~dst:0 (sproto ~src:2 ~dst:0 "from c");
      (* the two may arrive in either order *)
      let seen = Hashtbl.create 2 in
      while Hashtbl.length seen < 2 do
        match
          poll_for a (function (_, Wire.Sproto _) -> true | _ -> false) "frame"
        with
        | src, Wire.Sproto { payload; _ } -> Hashtbl.replace seen payload src
        | _ -> ()
      done;
      Alcotest.(check (option int)) "b's frame" (Some 1)
        (Hashtbl.find_opt seen "from b");
      Alcotest.(check (option int)) "c's frame" (Some 2)
        (Hashtbl.find_opt seen "from c");
      b.h.send ~dst:0 Wire.Shutdown;
      let src, _ =
        poll_for a (function (_, Wire.Shutdown) -> true | _ -> false) "shutdown"
      in
      Alcotest.(check int) "anonymous frame"
        (if name = "tcp" then 1 else -1)
        src)

let test_oversize_guard name () =
  (* one datagram on UDP; on TCP, what the receiver's length-prefix check
     accepts *)
  let bound = if name = "udp" then Udp.max_datagram else Wire.max_frame in
  let pa = free_port name and pb = free_port name in
  let a = node name (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  with_nodes (fun () ->
      let huge = String.make (bound + 1) 'x' in
      a.h.send ~dst:1 (sproto ~src:0 ~dst:1 huge);
      Alcotest.(check int) "oversize counted, not sent" 1
        (a.h.stats ()).Sig.oversize_dropped;
      Alcotest.(check int) "nothing went out" 0 (a.h.stats ()).Sig.frames_sent;
      (* the link still works afterwards *)
      a.h.send ~dst:1 (sproto ~src:0 ~dst:1 "ok");
      ignore (poll_for b (is_payload "ok") "frame after oversize"))

(* tick until [n] has counted [count] undecodable inputs *)
let wait_undecodable n count =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (n.h.Sig.stats ()).Sig.undecodable < count do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "undecodable input never counted";
    tick ();
    Thread.delay 0.01
  done

(* Connect a raw socket to a TCP transport's port and write [bytes]; the
   transport must count the stream undecodable and close it. *)
let tcp_garbage b port bytes ~count =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (addr port);
      ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      wait_undecodable b count;
      (* dropped: the transport closed its end *)
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let closed =
        match Unix.read fd (Bytes.create 1) 0 1 with
        | 0 -> true
        | _ -> false
        | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true
      in
      Alcotest.(check bool) "connection dropped" true closed)

let test_undecodable_dropped name () =
  let pb = free_port name in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[] ()) in
  with_nodes (fun () ->
      let junk = "\xff\x00garbage datagram" in
      if name = "udp" then begin
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
        ignore
          (Unix.sendto fd (Bytes.of_string junk) 0 (String.length junk) []
             (addr pb));
        Unix.close fd;
        wait_undecodable b 1
      end
      else begin
        let prefix len =
          let h = Bytes.create 4 in
          Bytes.set_int32_be h 0 (Int32.of_int len);
          Bytes.to_string h
        in
        (* a well-framed body that does not decode, then a length prefix
           above the frame bound *)
        tcp_garbage b pb (prefix (String.length junk) ^ junk) ~count:1;
        tcp_garbage b pb (prefix (Wire.max_frame + 1)) ~count:2
      end;
      Alcotest.(check int) "no frame surfaced" 0 (b.h.stats ()).Sig.frames_received)

let test_factory name () =
  let pa = free_port name in
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

let test_close_owns_its_fds name () =
  (* [close] must close each descriptor it owns exactly once, and none it
     gave up: a connection its peer closed is not closed a second time
     under a number the process has since reused *)
  let pa = free_port name and pb = free_port name in
  let a = node name (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = node name (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  let files = ref [] in
  Fun.protect
    ~finally:(fun () ->
      close_all ();
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !files)
    (fun () ->
      a.h.send ~dst:1 (sproto ~src:0 ~dst:1 "a");
      b.h.send ~dst:0 (sproto ~src:1 ~dst:0 "b");
      ignore (poll_for b (is_payload "a") "frame at b");
      ignore (poll_for a (is_payload "b") "frame at a");
      b.h.close ();
      nodes := [ a ];
      settle 0.3;
      files := List.init 20 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0);
      a.h.close ();
      nodes := [];
      settle 0.3;
      List.iteri
        (fun i fd ->
          match Unix.read fd (Bytes.create 1) 0 1 with
          | _ -> ()
          | exception Unix.Unix_error (e, _, _) ->
            Alcotest.failf "file %d unreadable after close: %s" i
              (Unix.error_message e))
        !files)

(* ---- TCP stream cases ---- *)

let payloads_in n =
  let got = ref [] in
  let rec go () =
    match Queue.take_opt n.inbox with
    | Some (_, Wire.Sproto { payload; _ }) ->
      got := payload :: !got;
      go ()
    | Some _ -> go ()
    | None -> ()
  in
  go ();
  List.rev !got

(* tick until [n] has received [k] Sproto frames; their payloads, in
   arrival order *)
let collect ?(timeout = 10.0) n k what =
  let deadline = Unix.gettimeofday () +. timeout in
  let got = ref [] in
  while List.length !got < k do
    if Unix.gettimeofday () > deadline then
      Alcotest.failf "%s: %d of %d frames arrived" what (List.length !got) k;
    tick ();
    got := !got @ payloads_in n;
    Thread.delay 0.005
  done;
  !got

let numbered k = List.init k string_of_int

let test_sent_before_listen () =
  let pa = free_port "tcp" and pb = free_port "tcp" in
  let a = node "tcp" (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  with_nodes (fun () ->
      List.iter (fun p -> a.h.send ~dst:1 (sproto ~src:0 ~dst:1 p)) (numbered 50);
      (* a few refused dials while nobody listens *)
      settle 0.2;
      Alcotest.(check int) "nothing sent yet" 0 (a.h.stats ()).Sig.frames_sent;
      let b = node "tcp" (cfg ~self:1 ~listen_port:pb ~peers:[] ()) in
      Alcotest.(check (list string)) "queued frames arrive in order"
        (numbered 50) (collect b 50 "queued frames");
      Alcotest.(check int) "one connection" 1 (a.h.stats ()).Sig.connects)

let test_redial_after_restart () =
  let pa = free_port "tcp" and pb = free_port "tcp" in
  let a = node "tcp" (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = node "tcp" (cfg ~self:1 ~listen_port:pb ~peers:[] ()) in
  with_nodes (fun () ->
      a.h.send ~dst:1 (sproto ~src:0 ~dst:1 "first life");
      ignore (poll_for b (is_payload "first life") "frame before restart");
      b.h.close ();
      nodes := [ a ];
      settle 0.2;
      let b2 = node "tcp" (cfg ~self:1 ~listen_port:pb ~peers:[] ()) in
      List.iter (fun p -> a.h.send ~dst:1 (sproto ~src:0 ~dst:1 p)) (numbered 100);
      Alcotest.(check (list string)) "the new life gets every frame, in order"
        (numbered 100) (collect b2 100 "frames after restart");
      Alcotest.(check int) "redialled" 2 (a.h.stats ()).Sig.connects)

let test_both_write_before_polling () =
  (* each side writes ~8 MB to the other before it polls: far more than
     the kernel buffers hold, so both sends block and must read while
     they wait. The two owners run on two threads. *)
  let frames = 1024 and size = 8192 in
  let pa = free_port "tcp" and pb = free_port "tcp" in
  let a = node "tcp" (cfg ~self:0 ~listen_port:pa ~peers:[ (1, addr pb) ] ()) in
  let b = node "tcp" (cfg ~self:1 ~listen_port:pb ~peers:[ (0, addr pa) ] ()) in
  with_nodes (fun () ->
      (* both links up first, so the frames go to the sockets *)
      let hello n =
        poll_for n
          (function (_, Wire.Hello _) -> true | _ -> false)
          "hello"
      in
      ignore (hello a);
      ignore (hello b);
      let payload k = Printf.sprintf "%06d" k ^ String.make (size - 6) 'p' in
      let run self other h =
        for k = 0 to frames - 1 do
          h.Sig.send ~dst:other (sproto ~src:self ~dst:other (payload k))
        done;
        let got = ref [] and count = ref 0 in
        let deadline = Unix.gettimeofday () +. 30.0 in
        while !count < frames && Unix.gettimeofday () < deadline do
          match h.Sig.poll () with
          | Some (_, Wire.Sproto { payload; _ }) ->
            got := payload :: !got;
            incr count
          | Some _ -> ()
          | None -> Thread.delay 0.001
        done;
        List.rev !got
      in
      let from_b = ref [] in
      let th = Thread.create (fun () -> from_b := run 0 1 a.h) () in
      let from_a = run 1 0 b.h in
      Thread.join th;
      let expected = List.init frames payload in
      Alcotest.(check int) "b got every frame" frames (List.length from_a);
      Alcotest.(check int) "a got every frame" frames (List.length !from_b);
      Alcotest.(check bool) "b got them in order" true (from_a = expected);
      Alcotest.(check bool) "a got them in order" true (!from_b = expected))

let suite name =
  [
    Alcotest.test_case "loopback round-trip" `Quick (test_roundtrip name);
    Alcotest.test_case "broadcast reaches all peers" `Quick (test_broadcast name);
    Alcotest.test_case "oversize sends are refused and counted" `Quick
      (test_oversize_guard name);
    Alcotest.test_case "undecodable datagrams dropped cleanly" `Quick
      (test_undecodable_dropped name);
    Alcotest.test_case "transport factory resolves names" `Quick
      (test_factory name);
    Alcotest.test_case "close closes only descriptors it owns" `Quick
      (test_close_owns_its_fds name);
    Alcotest.test_case "poll names each frame's sender" `Quick
      (test_poll_names_sender name);
  ]
  @
  if name = "tcp" then
    [
      Alcotest.test_case "frames sent before the peer listens arrive in order"
        `Quick test_sent_before_listen;
      Alcotest.test_case "a peer restarted on its old port is redialled" `Quick
        test_redial_after_restart;
      Alcotest.test_case "8 MB each way before either polls arrives in order"
        `Quick test_both_write_before_polling;
    ]
  else []
