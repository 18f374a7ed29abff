(* Wire-codec round-trip and corruption-rejection tests.

   Every [Dmx_core.Messages.t] constructor, every [Dmx_sim.Trace.kind]
   constructor and every [Dmx_net.Wire.frame] constructor must survive
   encode/decode unchanged — including the recursive reliability envelope,
   sentinel values ([Timestamp.infinity], [neg_infinity] incarnations) and
   max-size payloads. Decoding must be total: any truncation or corruption
   yields [Error], never an exception or a silently wrong value. *)

module M = Dmx_core.Messages
module Ts = Dmx_sim.Timestamp
module Trace = Dmx_sim.Trace
module Wire = Dmx_net.Wire

(* ---- generators ---- *)

let ts_gen =
  QCheck.Gen.(
    frequency
      [
        ( 8,
          map2
            (fun sn site -> { Ts.sn; site })
            (int_range 0 1_000_000) (int_range 0 64) );
        (1, return Ts.infinity);
      ])

let small_string_gen = QCheck.Gen.(string_size ~gen:char (int_range 0 64))

let float_gen =
  QCheck.Gen.(
    frequency
      [
        (8, float);
        (1, return neg_infinity);
        (1, return 0.0);
        (1, return infinity);
      ])

let msg_gen : M.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (3, map (fun ts -> M.Request ts) ts_gen);
        ( 3,
          map3
            (fun arbiter for_req next -> M.Reply { arbiter; for_req; next })
            (int_range 0 64) ts_gen (option ts_gen) );
        ( 3,
          map2
            (fun of_req forwarded_to -> M.Release { of_req; forwarded_to })
            ts_gen (option ts_gen) );
        ( 3,
          map2 (fun target inquire -> M.Transfer { target; inquire }) ts_gen bool
        );
        (1, return M.Fail);
        (2, map (fun of_req -> M.Yield { of_req }) ts_gen);
        (2, map (fun s -> M.Failure_note s) (int_range 0 64));
        (1, return M.Hello);
        ( 2,
          map2 (fun of_inc upto -> M.Ack { of_inc; upto }) float_gen
            (int_range 0 1_000_000) );
      ]
  in
  (* wrap roughly a third of messages in one or two Data envelopes, so the
     recursive case is exercised *)
  let rec wrap depth m =
    if depth = 0 then return m
    else
      float_gen >>= fun inc ->
      float_gen >>= fun dst_inc ->
      int_range 0 10_000 >>= fun seq ->
      int_range 0 10_000 >>= fun base ->
      bool >>= fun retx ->
      wrap (depth - 1) (M.Data { inc; dst_inc; seq; base; retx; payload = m })
  in
  base >>= fun m ->
  int_range 0 2 >>= fun depth -> wrap depth m

let kind_gen : Trace.kind QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      ( 3,
        map2
          (fun dst msg -> Trace.Send { dst; msg })
          (int_range 0 64) small_string_gen );
      ( 3,
        map2
          (fun src msg -> Trace.Receive { src; msg })
          (int_range 0 64) small_string_gen );
      (2, return Trace.Enter_cs);
      (2, return Trace.Exit_cs);
      (1, map (fun t -> Trace.Timer t) (int_range 0 128));
      (1, return Trace.Crash);
      (1, return Trace.Recover);
      ( 1,
        map2
          (fun dst reason -> Trace.Drop { dst; reason })
          (int_range 0 64) small_string_gen );
      (1, map (fun dst -> Trace.Duplicate { dst }) (int_range 0 64));
      (1, map (fun heal -> Trace.Partition { heal }) bool);
      (1, map (fun s -> Trace.Suspect s) (int_range 0 64));
      (1, map (fun s -> Trace.Trust s) (int_range 0 64));
      (1, map (fun s -> Trace.Note s) small_string_gen);
      (2, return Trace.Request);
      ( 1,
        map
          (fun q -> Trace.Adopt_quorum q)
          (list_size (int_range 0 12) (int_range 0 64)) );
      (1, map (fun arbiter -> Trace.Acquire { arbiter }) (int_range 0 64));
      (1, map (fun arbiter -> Trace.Cede { arbiter }) (int_range 0 64));
      ( 1,
        map2
          (fun arbiter to_ -> Trace.Forward { arbiter; to_ })
          (int_range 0 64) (int_range 0 64) );
      (1, map (fun to_ -> Trace.Grant { to_ }) (int_range 0 64));
    ]

let entry_gen : Trace.entry QCheck.Gen.t =
  QCheck.Gen.(
    map3
      (fun time site kind -> { Trace.time; site; kind })
      (float_range 0.0 1000.0) (int_range 0 64) kind_gen)

(* index-unique names keep [Snapshot.normalize] from seeing duplicate
   (name, labels) keys; the decoder re-normalizes, so round-trip equality
   needs a canonical input *)
let snapshot_gen : Dmx_obs.Snapshot.t QCheck.Gen.t =
  let open QCheck.Gen in
  let value_gen =
    frequency
      [
        (4, map (fun v -> Dmx_obs.Snapshot.Counter v) (int_range 0 1_000_000));
        ( 2,
          map
            (fun v -> Dmx_obs.Snapshot.Gauge v)
            (int_range (-1_000) 1_000_000) );
        ( 2,
          map3
            (fun buckets (count, sum) max ->
              Dmx_obs.Snapshot.Histogram
                { buckets = Array.of_list buckets; count; sum; max })
            (list_size (int_range 0 64) (int_range 0 10_000))
            (pair (int_range 0 10_000) (int_range 0 1_000_000))
            (int_range 0 1_000_000) );
      ]
  in
  let series_gen i =
    map2
      (fun labeled value ->
        Dmx_obs.Snapshot.series
          ~name:(Printf.sprintf "metric.%d" i)
          ~labels:
            (if labeled then [ ("shard", string_of_int (i mod 4)) ] else [])
          value)
      bool value_gen
  in
  int_range 0 8 >>= fun n ->
  flatten_l (List.init n series_gen) >>= fun raw ->
  return (Dmx_obs.Snapshot.normalize raw)

let frame_gen : Wire.frame QCheck.Gen.t =
  let open QCheck.Gen in
  frequency
    [
      ( 2,
        map2
          (fun site inc -> Wire.Hello { site; inc })
          (int_range 0 64) float_gen );
      ( 2,
        map2
          (fun site time -> Wire.Heartbeat { site; time })
          (int_range 0 64) float_gen );
      (1, map (fun since -> Wire.Workload { since }) (float_range 0.0 100.0));
      ( 2,
        map3
          (fun site (executions, sent, received) (kinds, reliable) ->
            Wire.Metrics { site; executions; sent; received; kinds; reliable })
          (int_range 0 64)
          (triple (int_range 0 100_000) (int_range 0 100_000)
             (int_range 0 100_000))
          (pair
             (list_size (int_range 0 10)
                (pair small_string_gen (int_range 0 100_000)))
             (list_size (int_range 0 10)
                (pair small_string_gen (int_range 0 100_000)))) );
      (1, return Wire.Shutdown);
      ( 2,
        map2
          (fun session inc -> Wire.Open_session { session; inc })
          (int_range 0 1_000_000) float_gen );
      ( 2,
        map3
          (fun session lock req -> Wire.Acquire { session; lock; req })
          (int_range 0 1_000_000) small_string_gen (int_range 0 1_000_000) );
      ( 1,
        map3
          (fun session lock req -> Wire.Release_lock { session; lock; req })
          (int_range 0 1_000_000) small_string_gen (int_range 0 1_000_000) );
      ( 1,
        map3
          (fun session lock req -> Wire.Renew { session; lock; req })
          (int_range 0 1_000_000) small_string_gen (int_range 0 1_000_000) );
      ( 2,
        map3
          (fun session (lock, req) deadline ->
            Wire.Grant { session; lock; req; deadline })
          (int_range 0 1_000_000)
          (pair small_string_gen (int_range 0 1_000_000))
          float_gen );
      ( 1,
        map3
          (fun session (lock, req) reason ->
            Wire.Deny { session; lock; req; reason })
          (int_range 0 1_000_000)
          (pair small_string_gen (int_range 0 1_000_000))
          small_string_gen );
      ( 1,
        map3
          (fun session lock req -> Wire.Expire { session; lock; req })
          (int_range 0 1_000_000) small_string_gen (int_range 0 1_000_000) );
      ( 6,
        map3
          (fun shard (src, dst) m ->
            Wire.Sproto { shard; src; dst; payload = Wire.encode_message m })
          (int_range 0 64)
          (pair (int_range 0 64) (int_range 0 64))
          msg_gen );
      ( 5,
        map3
          (fun shard site entries -> Wire.Strace { shard; site; entries })
          (int_range 0 64) (int_range 0 64)
          (list_size (int_range 0 32) entry_gen) );
      ( 2,
        map2
          (fun site snapshot -> Wire.Metrics_v2 { site; snapshot })
          (int_range 0 64) snapshot_gen );
    ]

(* ---- printers (shrunk output readability) ---- *)

let msg_print m = Format.asprintf "%a" M.pp m

let frame_print = function
  | Wire.Hello { site; inc } -> Printf.sprintf "Hello{site=%d;inc=%h}" site inc
  | Wire.Heartbeat { site; time } ->
    Printf.sprintf "Heartbeat{site=%d;time=%h}" site time
  | Wire.Workload { since } -> Printf.sprintf "Workload{since=%h}" since
  | Wire.Metrics { site; executions; _ } ->
    Printf.sprintf "Metrics{site=%d;executions=%d}" site executions
  | Wire.Shutdown -> "Shutdown"
  | Wire.Open_session { session; inc } ->
    Printf.sprintf "Open_session{session=%d;inc=%h}" session inc
  | Wire.Acquire { session; lock; req } ->
    Printf.sprintf "Acquire{session=%d;lock=%S;req=%d}" session lock req
  | Wire.Release_lock { session; lock; req } ->
    Printf.sprintf "Release_lock{session=%d;lock=%S;req=%d}" session lock req
  | Wire.Renew { session; lock; req } ->
    Printf.sprintf "Renew{session=%d;lock=%S;req=%d}" session lock req
  | Wire.Grant { session; lock; req; deadline } ->
    Printf.sprintf "Grant{session=%d;lock=%S;req=%d;deadline=%h}" session lock
      req deadline
  | Wire.Deny { session; lock; req; reason } ->
    Printf.sprintf "Deny{session=%d;lock=%S;req=%d;reason=%S}" session lock req
      reason
  | Wire.Expire { session; lock; req } ->
    Printf.sprintf "Expire{session=%d;lock=%S;req=%d}" session lock req
  | Wire.Sproto { shard; src; dst; payload } ->
    Printf.sprintf "Sproto{shard=%d;src=%d;dst=%d;%d bytes}" shard src dst
      (String.length payload)
  | Wire.Strace { shard; site; entries } ->
    Printf.sprintf "Strace{shard=%d;site=%d;%d entries}" shard site
      (List.length entries)
  | Wire.Metrics_v2 { site; snapshot } ->
    Printf.sprintf "Metrics_v2{site=%d;%d series}" site (List.length snapshot)

(* ---- properties ---- *)

(* The hostile-bytes properties run [soak] times their count under
   [QCHECK_LONG=1], as the CI soak step runs them. *)
let soak = 100

let prop_msg_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"message round-trip"
    (QCheck.make ~print:msg_print msg_gen) (fun m ->
      match Wire.decode_message (Wire.encode_message m) with
      | Ok m' -> m = m'
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_frame_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"frame round-trip"
    (QCheck.make ~print:frame_print frame_gen) (fun f ->
      match Wire.decode (Wire.encode f) with
      | Ok f' -> f = f'
      | Error e -> QCheck.Test.fail_reportf "decode error: %s" e)

let prop_truncation_rejected =
  QCheck.Test.make ~long_factor:soak ~count:500
    ~name:"every strict prefix rejected"
    (QCheck.make ~print:frame_print frame_gen) (fun f ->
      let enc = Wire.encode f in
      let ok = ref true in
      for len = 0 to String.length enc - 1 do
        match Wire.decode (String.sub enc 0 len) with
        | Error _ -> ()
        | Ok _ -> ok := false
      done;
      !ok)

let prop_trailing_rejected =
  QCheck.Test.make ~count:500 ~name:"trailing bytes rejected"
    (QCheck.make ~print:frame_print frame_gen) (fun f ->
      match Wire.decode (Wire.encode f ^ "\x00") with
      | Error _ -> true
      | Ok _ -> false)

let prop_corrupt_never_raises =
  (* flip one byte anywhere: decode must return, not raise; if it returns
     Ok, re-encoding must reproduce the corrupted input (i.e. the flip hit
     a don't-care position — which the exact-consumption decoder makes
     impossible except inside string payloads or numeric fields, where the
     decoded value legitimately differs but stays well-formed). *)
  QCheck.Test.make ~long_factor:soak ~count:1000
    ~name:"single-byte corruption never raises"
    (QCheck.make
       ~print:(fun (f, pos, byte) ->
         Printf.sprintf "%s / flip pos %d to %d" (frame_print f) pos byte)
       QCheck.Gen.(triple frame_gen (int_range 0 1_000_000) (int_range 0 255)))
    (fun (f, pos, byte) ->
      let enc = Bytes.of_string (Wire.encode f) in
      let pos = pos mod Bytes.length enc in
      Bytes.set_uint8 enc pos byte;
      match Wire.decode (Bytes.to_string enc) with
      | Ok _ | Error _ -> true)

(* ---- datagram-shaped corruption ----

   On the UDP path there is no length prefix: one datagram IS one frame
   payload, so the decoder's exact-consumption rule is the only framing.
   Model the datagram failure modes directly: two frames fused into one
   datagram, a datagram truncated in flight, and random noise. (Truncation
   of a single frame and single-byte flips are covered above; duplicated
   datagrams decode independently, which the round-trip property covers.) *)

let prop_fused_datagram_rejected =
  QCheck.Test.make ~count:500 ~name:"two frames fused into one datagram rejected"
    (QCheck.make
       ~print:(fun (a, b) ->
         Printf.sprintf "%s ++ %s" (frame_print a) (frame_print b))
       QCheck.Gen.(pair frame_gen frame_gen))
    (fun (a, b) ->
      match Wire.decode (Wire.encode a ^ Wire.encode b) with
      | Error _ -> true
      | Ok _ -> false)

let prop_noise_never_raises =
  QCheck.Test.make ~long_factor:soak ~count:2000
    ~name:"random datagram noise never raises"
    (QCheck.make
       ~print:(fun s -> Printf.sprintf "%d noise bytes" (String.length s))
       QCheck.Gen.(string_size ~gen:char (int_range 0 512)))
    (fun s -> match Wire.decode s with Ok _ | Error _ -> true)

let prop_oversize_batch_stays_in_datagram =
  (* the service daemon chunks trace batches at 96 entries; any such
     chunk must fit a single UDP datagram with room to spare *)
  QCheck.Test.make ~count:100 ~name:"96-entry trace batch fits a datagram"
    (QCheck.make
       ~print:(fun es -> Printf.sprintf "%d entries" (List.length es))
       QCheck.Gen.(list_size (return 96) entry_gen))
    (fun entries ->
      let enc = Wire.encode (Wire.Strace { shard = 0; site = 0; entries }) in
      String.length enc <= Dmx_net.Udp.max_datagram)

(* ---- the stream splitter ---- *)

module Sp = Wire.Splitter

(* Feed [stream] to a splitter in chunks of the given sizes (cycled; the
   splitter may take less than offered), collecting what [next] returns
   until the stream is consumed or an error ends it. Fails if a [fill]
   ever offers room beyond [capacity]. *)
let split_stream stream sizes =
  let sp = Sp.create () in
  let pos = ref 0 and sizes = ref sizes and out = ref [] and stop = ref false in
  let next_size () =
    match !sizes with
    | s :: rest ->
      sizes := rest @ [ s ];
      s
    | [] -> String.length stream
  in
  let rec drain () =
    match Sp.next sp with
    | None -> ()
    | Some (Error _ as e) ->
      out := e :: !out;
      stop := true
    | Some (Ok _ as f) ->
      out := f :: !out;
      drain ()
  in
  while (not !stop) && !pos < String.length stream do
    let chunk = min (next_size ()) (String.length stream - !pos) in
    let got =
      Sp.fill sp (fun buf off len ->
          if len <= 0 || Sp.buffered sp + len > Sp.capacity then
            QCheck.Test.fail_reportf "fill offered %d bytes with %d buffered"
              len (Sp.buffered sp);
          let n = min len chunk in
          Bytes.blit_string stream !pos buf off n;
          n)
    in
    pos := !pos + got;
    drain ()
  done;
  (List.rev !out, Sp.buffered sp)

let prop_splitter_roundtrip =
  QCheck.Test.make ~count:500 ~name:"splitter: chunked stream round-trips"
    (QCheck.make
       ~print:(fun (fs, sizes) ->
         Printf.sprintf "[%s] in chunks [%s]"
           (String.concat "; " (List.map frame_print fs))
           (String.concat "; " (List.map string_of_int sizes)))
       QCheck.Gen.(
         pair
           (list_size (int_range 0 12) frame_gen)
           (list_size (int_range 1 6) (int_range 1 300))))
    (fun (frames, sizes) ->
      let stream = String.concat "" (List.map Wire.framed frames) in
      let got, left = split_stream stream sizes in
      left = 0
      && List.length got = List.length frames
      && List.for_all2
           (fun f r ->
             match r with
             | Ok (f', n) -> f = f' && n = String.length (Wire.framed f)
             | Error _ -> false)
           frames got)

let prop_splitter_noise =
  QCheck.Test.make ~long_factor:soak ~count:2000
    ~name:"splitter: random bytes never raise"
    (QCheck.make
       ~print:(fun (s, _) -> Printf.sprintf "%d noise bytes" (String.length s))
       QCheck.Gen.(
         pair
           (string_size ~gen:char (int_range 0 512))
           (list_size (int_range 1 4) (int_range 1 64))))
    (fun (s, sizes) ->
      let _, left = split_stream s sizes in
      left <= Sp.capacity)

let prop_splitter_corrupt =
  (* a good frame, then either a length prefix above [max_frame] or a
     well-framed body that does not decode: the good frame comes out,
     then the error, and nothing after it *)
  QCheck.Test.make ~long_factor:soak ~count:500
    ~name:"splitter: corrupt frame ends the stream"
    (QCheck.make
       ~print:(fun (f, big, _) ->
         Printf.sprintf "%s then %s" (frame_print f)
           (if big then "an oversize prefix" else "an undecodable body"))
       QCheck.Gen.(triple frame_gen bool (int_range 1 64)))
    (fun (f, big, chunk) ->
      let bad =
        let b = Bytes.create 8 in
        if big then
          Bytes.set_int32_be b 0 (Int32.of_int (Wire.max_frame + 1))
        else begin
          Bytes.set_int32_be b 0 4l;
          (* a version byte the decoder refuses *)
          Bytes.set_int32_be b 4 0xff000000l
        end;
        Bytes.to_string b
      in
      let stream = Wire.framed f ^ bad ^ Wire.framed f in
      match split_stream stream [ chunk ] with
      | [ Ok (f', _); Error _ ], _ -> f = f'
      | _ -> false)

(* ---- unit cases: sentinels, max sizes, version gate, framed IO ---- *)

let check_msg m =
  match Wire.decode_message (Wire.encode_message m) with
  | Ok m' ->
    Alcotest.(check bool) (msg_print m) true (m = m')
  | Error e -> Alcotest.failf "decode_message %s: %s" (msg_print m) e

let test_sentinels () =
  check_msg (M.Request Ts.infinity);
  check_msg
    (M.Reply { arbiter = 0; for_req = Ts.infinity; next = Some Ts.infinity });
  check_msg
    (M.Data
       {
         inc = neg_infinity;
         dst_inc = neg_infinity;
         seq = max_int;
         base = 0;
         retx = true;
         payload = M.Hello;
       });
  check_msg (M.Ack { of_inc = nan; upto = 0 }
             |> fun m ->
             (* NaN <> NaN structurally; round-trip bit-exactness instead *)
             (match Wire.decode_message (Wire.encode_message m) with
              | Ok (M.Ack { of_inc; _ }) ->
                Alcotest.(check bool) "nan preserved" true (Float.is_nan of_inc)
              | Ok _ | Error _ -> Alcotest.fail "nan ack decode");
             M.Hello)

let test_max_payload () =
  (* an Sproto frame carrying a near-max_frame opaque payload round-trips *)
  let payload = String.make (Wire.max_frame - 64) 'x' in
  let f = Wire.Sproto { shard = 0; src = 1; dst = 2; payload } in
  match Wire.decode (Wire.encode f) with
  | Ok (Wire.Sproto { payload = p'; _ }) ->
    Alcotest.(check int) "payload length" (String.length payload)
      (String.length p')
  | Ok _ -> Alcotest.fail "wrong frame"
  | Error e -> Alcotest.failf "decode: %s" e

let test_version_rejected () =
  let enc = Bytes.of_string (Wire.encode Wire.Shutdown) in
  Bytes.set_uint8 enc 0 (Wire.version + 1);
  match Wire.decode (Bytes.to_string enc) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future version accepted"

let test_bad_tag_rejected () =
  let b = Buffer.create 4 in
  Buffer.add_uint8 b Wire.version;
  Buffer.add_uint8 b 250;
  (match Wire.decode (Buffer.contents b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad frame tag accepted");
  match Wire.decode_message "\xfa" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad message tag accepted"

let test_retired_tags_rejected () =
  (* v1's Proto (2) and Trace_batch (4), laid out as v1 wrote them, under
     the current version byte: shard 0 of Sproto/Strace replaced them *)
  let b = Buffer.create 32 in
  let frame tag body =
    Buffer.clear b;
    Buffer.add_uint8 b Wire.version;
    Buffer.add_uint8 b tag;
    body ();
    Buffer.contents b
  in
  let int v = Buffer.add_int64_be b (Int64.of_int v) in
  let proto =
    frame 2 (fun () ->
        int 0;
        int 1;
        Buffer.add_int32_be b 0l)
  in
  let trace_batch =
    frame 4 (fun () ->
        int 0;
        int 0)
  in
  List.iter
    (fun (what, bytes) ->
      match Wire.decode bytes with
      | Error _ -> ()
      | Ok f -> Alcotest.failf "retired %s decoded as %s" what (frame_print f))
    [ ("Proto", proto); ("Trace_batch", trace_batch) ]

let test_int_range () =
  (* A [Hello] whose site is an i64 beyond OCaml's 63-bit int: no encoder
     writes one, and a wrapping read would make [7f ff .. ff] site -1 (the
     anonymous sender) and [80 00 .. 00] site 0. The bounds still decode. *)
  let hello site =
    let b = Buffer.create 18 in
    Buffer.add_uint8 b Wire.version;
    Buffer.add_uint8 b 0;
    Buffer.add_int64_be b site;
    Buffer.add_int64_be b (Int64.bits_of_float 1.0);
    Buffer.contents b
  in
  List.iter
    (fun site ->
      match Wire.decode (hello site) with
      | Error _ -> ()
      | Ok f -> Alcotest.failf "site %Lx decoded as %s" site (frame_print f))
    [
      Int64.max_int;
      Int64.min_int;
      Int64.succ (Int64.of_int max_int);
      Int64.pred (Int64.of_int min_int);
    ];
  List.iter
    (fun site ->
      match Wire.decode (hello (Int64.of_int site)) with
      | Ok (Wire.Hello { site = s; _ }) -> Alcotest.(check int) "site" site s
      | Ok _ | Error _ -> Alcotest.failf "site %d rejected" site)
    [ max_int; min_int ];
  (* the message codec reads its integers through the same primitive *)
  let note = Buffer.create 9 in
  Buffer.add_uint8 note 6;
  Buffer.add_int64_be note Int64.max_int;
  match Wire.decode_message (Buffer.contents note) with
  | Error _ -> ()
  | Ok m -> Alcotest.failf "failure note decoded as %s" (msg_print m)

(* read [fd] through a splitter, to end of stream or the first error *)
let split_fd fd =
  let sp = Sp.create () in
  let rec go acc =
    match Sp.next sp with
    | Some (Ok _ as r) -> go (r :: acc)
    | Some (Error _ as r) -> List.rev (r :: acc)
    | None -> if Sp.fill sp (Unix.read fd) = 0 then List.rev acc else go acc
  in
  go []

let write_string fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let test_framed_io () =
  (* framed frames over a pipe, several back-to-back, split on the far side *)
  let frames =
    [
      Wire.Hello { site = 3; inc = 1.5 };
      Wire.Sproto
        {
          shard = 0;
          src = 0;
          dst = 4;
          payload = Wire.encode_message (M.Request { Ts.sn = 7; site = 0 });
        };
      Wire.Strace
        {
          shard = 0;
          site = 2;
          entries =
            [
              { Trace.time = 0.25; site = 2; kind = Trace.Request };
              { Trace.time = 0.5; site = 2; kind = Trace.Enter_cs };
            ];
        };
      Wire.Shutdown;
    ]
  in
  let rd, wr = Unix.pipe () in
  write_string wr (String.concat "" (List.map Wire.framed frames));
  Unix.close wr;
  let got = split_fd rd in
  Unix.close rd;
  Alcotest.(check int) "frame count" (List.length frames) (List.length got);
  List.iter2
    (fun expect -> function
      | Ok (got, _) -> Alcotest.(check bool) (frame_print expect) true (got = expect)
      | Error e -> Alcotest.failf "splitter: %s" e)
    frames got

let test_oversize_length_rejected () =
  let rd, wr = Unix.pipe () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int (Wire.max_frame + 1));
  ignore (Unix.write wr hdr 0 4);
  Unix.close wr;
  (match split_fd rd with
  | [ Error _ ] -> ()
  | _ -> Alcotest.fail "oversize frame accepted");
  Unix.close rd

let test_splitter_bound () =
  (* a maximal frame's prefix, then bytes for as long as the splitter
     takes them: it stops at exactly one maximal frame plus its header *)
  let sp = Sp.create () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 (Int32.of_int Wire.max_frame);
  ignore
    (Sp.fill sp (fun buf off _ ->
         Bytes.blit hdr 0 buf off 4;
         4));
  let rec go () =
    if Sp.buffered sp < Sp.capacity then begin
      ignore
        (Sp.fill sp (fun buf off len ->
             if Sp.buffered sp + len > Sp.capacity then
               Alcotest.failf "fill offered %d bytes with %d buffered" len
                 (Sp.buffered sp);
             Bytes.fill buf off len '\000';
             len));
      if Sp.buffered sp < Sp.capacity then
        Alcotest.(check bool) "incomplete frame held back" true
          (Sp.next sp = None);
      go ()
    end
  in
  go ();
  Alcotest.(check int) "one maximal frame plus its header" Sp.capacity
    (Sp.buffered sp);
  (* a zero version byte does not decode *)
  match Sp.next sp with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "zero-filled maximal frame decoded"

(* ---- pinned bytes ----

   Every property above is a round trip, which a change made to a writer
   and its reader alike would pass. This pins the bytes themselves: one
   frame per live tag, every message constructor (both option arms, a
   nested envelope, the sentinels) inside [Sproto], every trace kind in
   one [Strace], and each series kind in one [Metrics_v2]. *)

let pinned_frames =
  let ts sn site = { Ts.sn; site } in
  (* an explicit quiet NaN, so the pin does not depend on [Float.nan]'s
     bits *)
  let nan_q = Int64.float_of_bits 0x7FF8_0000_0000_0001L in
  let msgs =
    [
      M.Request (ts 7 2);
      M.Request Ts.infinity;
      M.Reply { arbiter = 3; for_req = ts 7 2; next = None };
      M.Reply { arbiter = 3; for_req = ts 7 2; next = Some Ts.infinity };
      M.Release { of_req = ts 9 1; forwarded_to = None };
      M.Release { of_req = ts 9 1; forwarded_to = Some (ts 10 4) };
      M.Transfer { target = ts 11 0; inquire = true };
      M.Transfer { target = ts 11 0; inquire = false };
      M.Fail;
      M.Yield { of_req = ts 12 5 };
      M.Failure_note 6;
      M.Hello;
      M.Data
        {
          inc = neg_infinity;
          dst_inc = 1.25;
          seq = 42;
          base = 40;
          retx = true;
          payload =
            M.Data
              {
                inc = 2.5;
                dst_inc = nan_q;
                seq = max_int;
                base = 0;
                retx = false;
                payload = M.Request (ts 13 3);
              };
        };
      M.Ack { of_inc = nan_q; upto = 17 };
      M.Ack { of_inc = neg_infinity; upto = 0 };
    ]
  in
  let kinds =
    [
      Trace.Send { dst = 1; msg = "request(1,0)" };
      Trace.Receive { src = 0; msg = "reply(2)@(1,0)" };
      Trace.Enter_cs;
      Trace.Exit_cs;
      Trace.Timer 5;
      Trace.Crash;
      Trace.Recover;
      Trace.Drop { dst = 2; reason = "loss" };
      Trace.Duplicate { dst = 3 };
      Trace.Partition { heal = true };
      Trace.Suspect 4;
      Trace.Trust 4;
      Trace.Note "";
      Trace.Request;
      Trace.Adopt_quorum [ 0; 1; 2 ];
      Trace.Acquire { arbiter = 1 };
      Trace.Cede { arbiter = 1 };
      Trace.Forward { arbiter = 1; to_ = 2 };
      Trace.Grant { to_ = 2 };
    ]
  in
  let snapshot =
    Dmx_obs.Snapshot.normalize
      [
        Dmx_obs.Snapshot.series ~name:"transport.sent" ~labels:[]
          (Dmx_obs.Snapshot.Counter 1234);
        Dmx_obs.Snapshot.series ~name:"service.sessions"
          ~labels:[ ("shard", "3"); ("node", "1") ]
          (Dmx_obs.Snapshot.Gauge (-5));
        Dmx_obs.Snapshot.series ~name:"service.acquire_us"
          ~labels:[ ("shard", "0") ]
          (Dmx_obs.Snapshot.Histogram
             { buckets = [| 0; 3; 9; 1 |]; count = 13; sum = 4321; max = 977 });
      ]
  in
  [
    Wire.Hello { site = 3; inc = 1.5 };
    Wire.Heartbeat { site = 1; time = neg_infinity };
    Wire.Workload { since = 0.75 };
    Wire.Metrics
      {
        site = 2;
        executions = 100;
        sent = 300;
        received = 299;
        kinds = [ ("request", 100); ("reply", 200) ];
        reliable = [ ("reliable.retransmits", 4) ];
      };
    Wire.Shutdown;
    Wire.Open_session { session = 77; inc = 3.0 };
    Wire.Acquire { session = 77; lock = "lock-a"; req = 1 };
    Wire.Release_lock { session = 77; lock = "lock-a"; req = 2 };
    Wire.Renew { session = 77; lock = "lock-a"; req = 3 };
    Wire.Grant { session = 77; lock = "lock-a"; req = 3; deadline = 12.5 };
    Wire.Deny { session = 78; lock = ""; req = 4; reason = "no quorum" };
    Wire.Expire { session = 77; lock = "lock-a"; req = 5 };
  ]
  @ List.mapi
      (fun i m ->
        Wire.Sproto
          { shard = i mod 3; src = 0; dst = 1; payload = Wire.encode_message m })
      msgs
  @ [
      Wire.Strace
        {
          shard = 2;
          site = 1;
          entries =
            List.mapi
              (fun i kind ->
                { Trace.time = 0.125 *. float_of_int i; site = i mod 4; kind })
              kinds;
        };
      Wire.Metrics_v2 { site = 4; snapshot };
    ]

let test_bytes_pinned () =
  let bytes = String.concat "" (List.map Wire.framed pinned_frames) in
  Alcotest.(check int) "byte count" 2020 (String.length bytes);
  Alcotest.(check string) "md5" "60fcf65b80865d845b1611a918950ea4"
    (Digest.to_hex (Digest.string bytes))

(* ---- the message printer ---- *)

(* Reference copy of the [Format]-based [Messages.pp] that traces were
   rendered with before the buffer printer replaced it; kept only here,
   so every trace byte stays pinned to its output. *)
let rec reference_pp ppf = function
  | M.Request ts -> Format.fprintf ppf "request%a" Ts.pp ts
  | M.Reply { arbiter; for_req; next = None } ->
    Format.fprintf ppf "reply(%d)@%a" arbiter Ts.pp for_req
  | M.Reply { arbiter; for_req; next = Some p } ->
    Format.fprintf ppf "reply(%d)@%a+transfer%a" arbiter Ts.pp for_req Ts.pp p
  | M.Release { of_req; forwarded_to = None } ->
    Format.fprintf ppf "release(%a,max)" Ts.pp of_req
  | M.Release { of_req; forwarded_to = Some x } ->
    Format.fprintf ppf "release(%a,->%a)" Ts.pp of_req Ts.pp x
  | M.Transfer { target; inquire } ->
    Format.fprintf ppf "%stransfer%a"
      (if inquire then "inquire+" else "")
      Ts.pp target
  | M.Fail -> Format.pp_print_string ppf "fail"
  | M.Yield { of_req } -> Format.fprintf ppf "yield(%a)" Ts.pp of_req
  | M.Failure_note i -> Format.fprintf ppf "failure(%d)" i
  | M.Hello -> Format.pp_print_string ppf "hello"
  | M.Data { seq; retx; payload; _ } ->
    Format.fprintf ppf "%s#%d:%a" (if retx then "retx" else "seq") seq
      reference_pp payload
  | M.Ack { upto; _ } -> Format.fprintf ppf "ack<=%d" upto

let prop_printer_matches_reference =
  QCheck.Test.make ~count:2000 ~name:"message printer matches the Format reference"
    (QCheck.make ~print:msg_print msg_gen) (fun m ->
      let expected = Format.asprintf "%a" reference_pp m in
      let b = Buffer.create 16 in
      M.add_to_buffer b m;
      Buffer.contents b = expected && Format.asprintf "%a" M.pp m = expected)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_msg_roundtrip;
      prop_printer_matches_reference;
      prop_frame_roundtrip;
      prop_truncation_rejected;
      prop_trailing_rejected;
      prop_corrupt_never_raises;
      prop_fused_datagram_rejected;
      prop_noise_never_raises;
      prop_oversize_batch_stays_in_datagram;
      prop_splitter_roundtrip;
      prop_splitter_noise;
      prop_splitter_corrupt;
    ]
  @ [
      Alcotest.test_case "sentinel values round-trip" `Quick test_sentinels;
      Alcotest.test_case "max-size payload round-trips" `Quick test_max_payload;
      Alcotest.test_case "future version rejected" `Quick test_version_rejected;
      Alcotest.test_case "unknown tags rejected" `Quick test_bad_tag_rejected;
      Alcotest.test_case "retired v1 tags rejected" `Quick
        test_retired_tags_rejected;
      Alcotest.test_case "out-of-range integer rejected" `Quick test_int_range;
      Alcotest.test_case "framed io over a pipe" `Quick test_framed_io;
      Alcotest.test_case "oversize length prefix rejected" `Quick
        test_oversize_length_rejected;
      Alcotest.test_case "splitter holds at most one maximal frame" `Quick
        test_splitter_bound;
      Alcotest.test_case "wire bytes pinned" `Quick test_bytes_pinned;
    ]
