module M = Dmx_core.Messages
module Ts = Dmx_sim.Timestamp
module Trace = Dmx_sim.Trace
module Snap = Dmx_obs.Snapshot

let version = 2
let max_frame = 16 * 1024 * 1024

(* ---- the codec ----

   A codec is one layout's writer and reader, built together from the
   primitives below, so the two cannot disagree. Readers work on a cursor
   over the payload. Every check a reader makes lives in this section: a
   read past the end, an integer outside OCaml's 63-bit range, an unknown
   tag (booleans and options are unions too), and a count larger than the
   bytes left all raise [Bad], caught once by [run]. So corruption can
   never escape as an exception, an out-of-range access or an allocation
   the payload cannot back. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun e -> raise (Bad e)) fmt

type cursor = { s : string; mutable pos : int }
type 'a t = { write : Buffer.t -> 'a -> unit; read : cursor -> 'a }

let need c k = if k > String.length c.s - c.pos then bad "truncated frame"

let w8 b v = Buffer.add_uint8 b v

let r8 c =
  need c 1;
  let v = String.get_uint8 c.s c.pos in
  c.pos <- c.pos + 1;
  v

let int =
  {
    write = (fun b v -> Buffer.add_int64_be b (Int64.of_int v));
    read =
      (fun c ->
        need c 8;
        let v = String.get_int64_be c.s c.pos in
        c.pos <- c.pos + 8;
        let i = Int64.to_int v in
        if Int64.of_int i <> v then bad "integer %Ld out of range" v;
        i);
  }

(* IEEE-754 bits, so NaN, infinities and signed zero round-trip exactly *)
let float =
  {
    write = (fun b v -> Buffer.add_int64_be b (Int64.bits_of_float v));
    read =
      (fun c ->
        need c 8;
        let v = String.get_int64_be c.s c.pos in
        c.pos <- c.pos + 8;
        Int64.float_of_bits v);
  }

let string =
  {
    write =
      (fun b s ->
        Buffer.add_int32_be b (Int32.of_int (String.length s));
        Buffer.add_string b s);
    read =
      (fun c ->
        need c 4;
        let n = Int32.to_int (String.get_int32_be c.s c.pos) in
        c.pos <- c.pos + 4;
        if n < 0 then bad "negative string length";
        need c n;
        let s = String.sub c.s c.pos n in
        c.pos <- c.pos + n;
        s);
  }

(* Every element takes at least one byte, so a count above the bytes left
   is corrupt: rejecting it first bounds the allocation by the payload. *)
let count c =
  let n = int.read c in
  if n < 0 || n > String.length c.s - c.pos then
    bad "count %d exceeds the %d byte(s) left" n (String.length c.s - c.pos);
  n

let list a =
  {
    write =
      (fun b l ->
        int.write b (List.length l);
        List.iter (a.write b) l);
    read = (fun c -> List.init (count c) (fun _ -> a.read c));
  }

let array a =
  {
    write =
      (fun b v ->
        int.write b (Array.length v);
        Array.iter (a.write b) v);
    read = (fun c -> Array.init (count c) (fun _ -> a.read c));
  }

(* [conv] maps a record (or any value) to and from the tuple [a] lays out *)
let conv to_ of_ a =
  { write = (fun b v -> a.write b (to_ v)); read = (fun c -> of_ (a.read c)) }

let pair x y =
  {
    write =
      (fun b (u, v) ->
        x.write b u;
        y.write b v);
    read =
      (fun c ->
        let u = x.read c in
        (u, y.read c));
  }

(* A tagged union: a one-byte tag, then that case's fields. [union]
   starts one; [caseN u tag f1 .. fN make] registers the case's reader,
   which reads the N fields and passes them to [make], and returns the
   case's writer, which takes the same N fields. The fields' types stay
   inside the closures, and no tuple is built on either side. [seal u
   write] closes the union with a writer that picks each value's case. *)
type 'a union = (cursor -> 'a) array

(* an unregistered tag's reader names the tag byte just read *)
let union what : 'a union =
  Array.make 256 (fun c ->
      bad "bad %s tag %d" what (String.get_uint8 c.s (c.pos - 1)))

let case0 u tag v =
  u.(tag) <- (fun _ -> v);
  fun b -> w8 b tag

let case1 u tag a make =
  u.(tag) <- (fun c -> make (a.read c));
  fun b x ->
    w8 b tag;
    a.write b x

let case2 u tag a1 a2 make =
  u.(tag) <- (fun c ->
      let x1 = a1.read c in
      make x1 (a2.read c));
  fun b x1 x2 ->
    w8 b tag;
    a1.write b x1;
    a2.write b x2

let case3 u tag a1 a2 a3 make =
  u.(tag) <- (fun c ->
      let x1 = a1.read c in
      let x2 = a2.read c in
      make x1 x2 (a3.read c));
  fun b x1 x2 x3 ->
    w8 b tag;
    a1.write b x1;
    a2.write b x2;
    a3.write b x3

let case4 u tag a1 a2 a3 a4 make =
  u.(tag) <- (fun c ->
      let x1 = a1.read c in
      let x2 = a2.read c in
      let x3 = a3.read c in
      make x1 x2 x3 (a4.read c));
  fun b x1 x2 x3 x4 ->
    w8 b tag;
    a1.write b x1;
    a2.write b x2;
    a3.write b x3;
    a4.write b x4

let seal u write = { write; read = (fun c -> u.(r8 c) c) }

let bool =
  let u = union "boolean" in
  let f = case0 u 0 false and t = case0 u 1 true in
  seal u (fun b v -> if v then t b else f b)

let option a =
  let u = union "option" in
  let none = case0 u 0 None and some = case1 u 1 a Option.some in
  seal u (fun b -> function None -> none b | Some v -> some b v)

(* a codec that refers to itself, for the recursive reliability envelope *)
let fix f =
  let rec self =
    lazy
      (f
         {
           write = (fun b v -> (Lazy.force self).write b v);
           read = (fun c -> (Lazy.force self).read c);
         })
  in
  Lazy.force self

(* Decode all of [s] with [read]: a value followed by anything is
   rejected, so two frames can never pass for one. *)
let run what s read =
  match
    let c = { s; pos = 0 } in
    let v = read c in
    if c.pos <> String.length s then
      bad "%d trailing byte(s) after %s" (String.length s - c.pos) what;
    v
  with
  | v -> Ok v
  | exception Bad e -> Error e

(* ---- Dmx_core.Messages.t ---- *)

let ts =
  conv
    (fun { Ts.sn; site } -> (sn, site))
    (fun (sn, site) -> { Ts.sn; site })
    (pair int int)

let message : M.t t =
  fix @@ fun message ->
  let u = union "message" in
  let request = case1 u 0 ts (fun t -> M.Request t) in
  let reply =
    case3 u 1 int ts (option ts) (fun arbiter for_req next ->
        M.Reply { arbiter; for_req; next })
  in
  let release =
    case2 u 2 ts (option ts) (fun of_req forwarded_to ->
        M.Release { of_req; forwarded_to })
  in
  let transfer =
    case2 u 3 ts bool (fun target inquire -> M.Transfer { target; inquire })
  in
  let fail = case0 u 4 M.Fail in
  let yield = case1 u 5 ts (fun of_req -> M.Yield { of_req }) in
  let failure_note = case1 u 6 int (fun s -> M.Failure_note s) in
  let hello = case0 u 7 M.Hello in
  (* the reliability envelope: its last field is a message *)
  let data =
    case4 u 8 (pair float float) (pair int int) bool message
      (fun (inc, dst_inc) (seq, base) retx payload ->
        M.Data { inc; dst_inc; seq; base; retx; payload })
  in
  let ack = case2 u 9 float int (fun of_inc upto -> M.Ack { of_inc; upto }) in
  seal u (fun b -> function
    | M.Request t -> request b t
    | M.Reply { arbiter; for_req; next } -> reply b arbiter for_req next
    | M.Release { of_req; forwarded_to } -> release b of_req forwarded_to
    | M.Transfer { target; inquire } -> transfer b target inquire
    | M.Fail -> fail b
    | M.Yield { of_req } -> yield b of_req
    | M.Failure_note s -> failure_note b s
    | M.Hello -> hello b
    | M.Data { inc; dst_inc; seq; base; retx; payload } ->
      data b (inc, dst_inc) (seq, base) retx payload
    | M.Ack { of_inc; upto } -> ack b of_inc upto)

(* a reliability envelope around a message passes 32 bytes *)
let encode_message m =
  let b = Buffer.create 64 in
  message.write b m;
  Buffer.contents b

let decode_message s = run "message" s message.read

(* ---- Dmx_sim.Trace entries ---- *)

let kind : Trace.kind t =
  let u = union "trace-kind" in
  let send = case2 u 0 int string (fun dst msg -> Trace.Send { dst; msg }) in
  let receive = case2 u 1 int string (fun src msg -> Trace.Receive { src; msg }) in
  let enter_cs = case0 u 2 Trace.Enter_cs in
  let exit_cs = case0 u 3 Trace.Exit_cs in
  let timer = case1 u 4 int (fun tag -> Trace.Timer tag) in
  let crash = case0 u 5 Trace.Crash in
  let recover = case0 u 6 Trace.Recover in
  let drop = case2 u 7 int string (fun dst reason -> Trace.Drop { dst; reason }) in
  let duplicate = case1 u 8 int (fun dst -> Trace.Duplicate { dst }) in
  let partition = case1 u 9 bool (fun heal -> Trace.Partition { heal }) in
  let suspect = case1 u 10 int (fun s -> Trace.Suspect s) in
  let trust = case1 u 11 int (fun s -> Trace.Trust s) in
  let note = case1 u 12 string (fun s -> Trace.Note s) in
  let request = case0 u 13 Trace.Request in
  let adopt_quorum = case1 u 14 (list int) (fun q -> Trace.Adopt_quorum q) in
  let acquire = case1 u 15 int (fun arbiter -> Trace.Acquire { arbiter }) in
  let cede = case1 u 16 int (fun arbiter -> Trace.Cede { arbiter }) in
  let forward =
    case2 u 17 int int (fun arbiter to_ -> Trace.Forward { arbiter; to_ })
  in
  let grant = case1 u 18 int (fun to_ -> Trace.Grant { to_ }) in
  seal u (fun b -> function
    | Trace.Send { dst; msg } -> send b dst msg
    | Trace.Receive { src; msg } -> receive b src msg
    | Trace.Enter_cs -> enter_cs b
    | Trace.Exit_cs -> exit_cs b
    | Trace.Timer tag -> timer b tag
    | Trace.Crash -> crash b
    | Trace.Recover -> recover b
    | Trace.Drop { dst; reason } -> drop b dst reason
    | Trace.Duplicate { dst } -> duplicate b dst
    | Trace.Partition { heal } -> partition b heal
    | Trace.Suspect s -> suspect b s
    | Trace.Trust s -> trust b s
    | Trace.Note s -> note b s
    | Trace.Request -> request b
    | Trace.Adopt_quorum q -> adopt_quorum b q
    | Trace.Acquire { arbiter } -> acquire b arbiter
    | Trace.Cede { arbiter } -> cede b arbiter
    | Trace.Forward { arbiter; to_ } -> forward b arbiter to_
    | Trace.Grant { to_ } -> grant b to_)

let entry =
  conv
    (fun { Trace.time; site; kind } -> ((time, site), kind))
    (fun ((time, site), kind) -> { Trace.time; site; kind })
    (pair (pair float int) kind)

(* ---- Dmx_obs.Snapshot series ---- *)

let series =
  let value =
    let u = union "series kind" in
    let counter = case1 u 0 int (fun v -> Snap.Counter v) in
    let gauge = case1 u 1 int (fun v -> Snap.Gauge v) in
    let histogram =
      case4 u 2 (array int) int int int (fun buckets count sum max ->
          Snap.Histogram { buckets; count; sum; max })
    in
    seal u (fun b -> function
      | Snap.Counter v -> counter b v
      | Snap.Gauge v -> gauge b v
      | Snap.Histogram { buckets; count; sum; max } ->
        histogram b buckets count sum max)
  in
  conv
    (fun { Snap.name; labels; value } -> ((name, labels), value))
    (fun ((name, labels), value) -> Snap.series ~name ~labels value)
    (pair (pair string (list (pair string string))) value)

(* order is a property of snapshots, not of the wire, so the reader
   re-canonicalizes; a repeated series is corruption *)
let snapshot =
  conv Fun.id
    (fun raw -> try Snap.normalize raw with Invalid_argument e -> raise (Bad e))
    (list series)

(* ---- frames ---- *)

type frame =
  | Hello of { site : int; inc : float }
  | Heartbeat of { site : int; time : float }
  | Workload of { since : float }
  | Metrics of {
      site : int;
      executions : int;
      sent : int;
      received : int;
      kinds : (string * int) list;
      reliable : (string * int) list;
    }
  | Shutdown
  (* ---- lock-service frames (sessions, leases, shards) ---- *)
  | Open_session of { session : int; inc : float }
  | Acquire of { session : int; lock : string; req : int }
  | Release_lock of { session : int; lock : string; req : int }
  | Renew of { session : int; lock : string; req : int }
  | Grant of { session : int; lock : string; req : int; deadline : float }
  | Deny of { session : int; lock : string; req : int; reason : string }
  | Expire of { session : int; lock : string; req : int }
  | Sproto of { shard : int; src : int; dst : int; payload : string }
  | Strace of { shard : int; site : int; entries : Trace.entry list }
  | Metrics_v2 of { site : int; snapshot : Snap.t }

let frame : frame t =
  let u = union "frame" in
  let hello = case2 u 0 int float (fun site inc -> Hello { site; inc }) in
  let heartbeat = case2 u 1 int float (fun site time -> Heartbeat { site; time }) in
  (* tags 2 and 4 (v1's Proto and Trace_batch) are retired: shard 0 of
     Sproto/Strace carries that traffic *)
  let workload = case1 u 3 float (fun since -> Workload { since }) in
  let counts = list (pair string int) in
  let metrics =
    case4 u 5 (pair int int) (pair int int) counts counts
      (fun (site, executions) (sent, received) kinds reliable ->
        Metrics { site; executions; sent; received; kinds; reliable })
  in
  let shutdown = case0 u 6 Shutdown in
  let open_session =
    case2 u 7 int float (fun session inc -> Open_session { session; inc })
  in
  let acquire =
    case3 u 8 int string int (fun session lock req ->
        Acquire { session; lock; req })
  in
  let release_lock =
    case3 u 9 int string int (fun session lock req ->
        Release_lock { session; lock; req })
  in
  let renew =
    case3 u 10 int string int (fun session lock req ->
        Renew { session; lock; req })
  in
  let grant =
    case4 u 11 int string int float (fun session lock req deadline ->
        Grant { session; lock; req; deadline })
  in
  let deny =
    case4 u 12 int string int string (fun session lock req reason ->
        Deny { session; lock; req; reason })
  in
  let expire =
    case3 u 13 int string int (fun session lock req ->
        Expire { session; lock; req })
  in
  let sproto =
    case4 u 14 int int int string (fun shard src dst payload ->
        Sproto { shard; src; dst; payload })
  in
  let strace =
    case3 u 15 int int (list entry) (fun shard site entries ->
        Strace { shard; site; entries })
  in
  let metrics_v2 =
    case2 u 16 int snapshot (fun site snapshot -> Metrics_v2 { site; snapshot })
  in
  seal u (fun b -> function
    | Hello { site; inc } -> hello b site inc
    | Heartbeat { site; time } -> heartbeat b site time
    | Workload { since } -> workload b since
    | Metrics { site; executions; sent; received; kinds; reliable } ->
      metrics b (site, executions) (sent, received) kinds reliable
    | Shutdown -> shutdown b
    | Open_session { session; inc } -> open_session b session inc
    | Acquire { session; lock; req } -> acquire b session lock req
    | Release_lock { session; lock; req } -> release_lock b session lock req
    | Renew { session; lock; req } -> renew b session lock req
    | Grant { session; lock; req; deadline } -> grant b session lock req deadline
    | Deny { session; lock; req; reason } -> deny b session lock req reason
    | Expire { session; lock; req } -> expire b session lock req
    | Sproto { shard; src; dst; payload } -> sproto b shard src dst payload
    | Strace { shard; site; entries } -> strace b shard site entries
    | Metrics_v2 { site; snapshot } -> metrics_v2 b site snapshot)

(* The version byte leads every payload. A frame carrying a protocol
   message usually passes 64 bytes, so the buffer starts at 128. *)
let encode f =
  let b = Buffer.create 128 in
  w8 b version;
  frame.write b f;
  Buffer.contents b

let decode s =
  run "frame" s (fun c ->
      let v = r8 c in
      if v <> version then bad "version %d, expected %d" v version;
      frame.read c)

(* ---- stream framing ---- *)

let framed frame =
  let payload = encode frame in
  let len = String.length payload in
  let out = Bytes.create (4 + len) in
  Bytes.set_int32_be out 0 (Int32.of_int len);
  Bytes.blit_string payload 0 out 4 len;
  Bytes.unsafe_to_string out

module Splitter = struct
  let capacity = 4 + max_frame
  let initial = 65536

  (* the buffered bytes are [buf.[off .. off + len - 1]] *)
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let create () = { buf = Bytes.create initial; off = 0; len = 0 }
  let buffered t = t.len

  (* the length prefix at the head of the buffer; only read once 4 bytes
     are in *)
  let declared t = Int32.to_int (Bytes.get_int32_be t.buf t.off)

  let fill t read =
    let size = Bytes.length t.buf in
    if t.off + t.len = size then begin
      (* no room at the tail: move the partial frame to the front, into a
         larger buffer when it fills this one (at most [capacity]) *)
      let size =
        if t.len < size then size else min capacity (max (2 * size) (4 + declared t))
      in
      let buf = if size > Bytes.length t.buf then Bytes.create size else t.buf in
      Bytes.blit t.buf t.off buf 0 t.len;
      t.buf <- buf;
      t.off <- 0
    end;
    let n = read t.buf (t.off + t.len) (Bytes.length t.buf - t.off - t.len) in
    t.len <- t.len + n;
    n

  let next t =
    if t.len < 4 then None
    else
      let len = declared t in
      if len < 0 || len > max_frame then
        Some (Error (Printf.sprintf "bad frame length %d" len))
      else if t.len < 4 + len then None
      else begin
        let payload = Bytes.sub_string t.buf (t.off + 4) len in
        t.off <- t.off + 4 + len;
        t.len <- t.len - 4 - len;
        if t.len = 0 then begin
          t.off <- 0;
          (* give back the room a large frame needed *)
          if Bytes.length t.buf > initial then t.buf <- Bytes.create initial
        end;
        Some (Result.map (fun frame -> (frame, 4 + len)) (decode payload))
      end
end
