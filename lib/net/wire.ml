module M = Dmx_core.Messages
module Ts = Dmx_sim.Timestamp
module Trace = Dmx_sim.Trace

let version = 2
let max_frame = 16 * 1024 * 1024

(* ---- encoding primitives ---- *)

let w8 b v = Buffer.add_uint8 b (v land 0xff)
let w64 b v = Buffer.add_int64_be b v
let wint b v = w64 b (Int64.of_int v)
let wf64 b v = w64 b (Int64.bits_of_float v)
let wbool b v = w8 b (if v then 1 else 0)

let wstr b s =
  Buffer.add_int32_be b (Int32.of_int (String.length s));
  Buffer.add_string b s

(* ---- decoding primitives ----

   A cursor over the payload; every reader bounds-checks and raises [Bad],
   caught once at the [decode] boundary, so corruption can never escape as
   an exception or out-of-range access. *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let need c k =
  if c.pos + k > String.length c.s || c.pos + k < c.pos then
    raise (Bad "truncated frame")

let r8 c =
  need c 1;
  let v = String.get_uint8 c.s c.pos in
  c.pos <- c.pos + 1;
  v

let r64 c =
  need c 8;
  let v = String.get_int64_be c.s c.pos in
  c.pos <- c.pos + 8;
  v

let rint c = Int64.to_int (r64 c)
let rf64 c = Int64.float_of_bits (r64 c)

let rbool c =
  match r8 c with
  | 0 -> false
  | 1 -> true
  | v -> raise (Bad (Printf.sprintf "bad boolean byte %d" v))

let rstr c =
  need c 4;
  let n = Int32.to_int (String.get_int32_be c.s c.pos) in
  c.pos <- c.pos + 4;
  if n < 0 then raise (Bad "negative string length");
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let finished c what =
  if c.pos <> String.length c.s then
    raise (Bad (Printf.sprintf "%d trailing byte(s) after %s"
                  (String.length c.s - c.pos) what))

(* ---- Dmx_core.Messages.t ---- *)

let wts b (ts : Ts.t) =
  wint b ts.Ts.sn;
  wint b ts.Ts.site

let rts c =
  let sn = rint c in
  let site = rint c in
  { Ts.sn; site }

let wopt w b = function
  | None -> w8 b 0
  | Some v ->
    w8 b 1;
    w b v

let ropt r c = match r8 c with
  | 0 -> None
  | 1 -> Some (r c)
  | v -> raise (Bad (Printf.sprintf "bad option byte %d" v))

let rec wmsg b (m : M.t) =
  match m with
  | M.Request ts ->
    w8 b 0;
    wts b ts
  | M.Reply { arbiter; for_req; next } ->
    w8 b 1;
    wint b arbiter;
    wts b for_req;
    wopt wts b next
  | M.Release { of_req; forwarded_to } ->
    w8 b 2;
    wts b of_req;
    wopt wts b forwarded_to
  | M.Transfer { target; inquire } ->
    w8 b 3;
    wts b target;
    wbool b inquire
  | M.Fail -> w8 b 4
  | M.Yield { of_req } ->
    w8 b 5;
    wts b of_req
  | M.Failure_note site ->
    w8 b 6;
    wint b site
  | M.Hello -> w8 b 7
  | M.Data { inc; dst_inc; seq; base; retx; payload } ->
    w8 b 8;
    wf64 b inc;
    wf64 b dst_inc;
    wint b seq;
    wint b base;
    wbool b retx;
    wmsg b payload
  | M.Ack { of_inc; upto } ->
    w8 b 9;
    wf64 b of_inc;
    wint b upto

let rec rmsg c : M.t =
  match r8 c with
  | 0 -> M.Request (rts c)
  | 1 ->
    let arbiter = rint c in
    let for_req = rts c in
    let next = ropt rts c in
    M.Reply { arbiter; for_req; next }
  | 2 ->
    let of_req = rts c in
    let forwarded_to = ropt rts c in
    M.Release { of_req; forwarded_to }
  | 3 ->
    let target = rts c in
    let inquire = rbool c in
    M.Transfer { target; inquire }
  | 4 -> M.Fail
  | 5 -> M.Yield { of_req = rts c }
  | 6 -> M.Failure_note (rint c)
  | 7 -> M.Hello
  | 8 ->
    let inc = rf64 c in
    let dst_inc = rf64 c in
    let seq = rint c in
    let base = rint c in
    let retx = rbool c in
    let payload = rmsg c in
    M.Data { inc; dst_inc; seq; base; retx; payload }
  | 9 ->
    let of_inc = rf64 c in
    let upto = rint c in
    M.Ack { of_inc; upto }
  | t -> raise (Bad (Printf.sprintf "bad message tag %d" t))

let encode_message m =
  let b = Buffer.create 32 in
  wmsg b m;
  Buffer.contents b

let decode_message s =
  match
    let c = { s; pos = 0 } in
    let m = rmsg c in
    finished c "message";
    m
  with
  | m -> Ok m
  | exception Bad e -> Error e

(* ---- Dmx_sim.Trace entries ---- *)

let wkind b (k : Trace.kind) =
  match k with
  | Trace.Send { dst; msg } ->
    w8 b 0;
    wint b dst;
    wstr b msg
  | Trace.Receive { src; msg } ->
    w8 b 1;
    wint b src;
    wstr b msg
  | Trace.Enter_cs -> w8 b 2
  | Trace.Exit_cs -> w8 b 3
  | Trace.Timer tag ->
    w8 b 4;
    wint b tag
  | Trace.Crash -> w8 b 5
  | Trace.Recover -> w8 b 6
  | Trace.Drop { dst; reason } ->
    w8 b 7;
    wint b dst;
    wstr b reason
  | Trace.Duplicate { dst } ->
    w8 b 8;
    wint b dst
  | Trace.Partition { heal } ->
    w8 b 9;
    wbool b heal
  | Trace.Suspect s ->
    w8 b 10;
    wint b s
  | Trace.Trust s ->
    w8 b 11;
    wint b s
  | Trace.Note s ->
    w8 b 12;
    wstr b s
  | Trace.Request -> w8 b 13
  | Trace.Adopt_quorum q ->
    w8 b 14;
    wint b (List.length q);
    List.iter (wint b) q
  | Trace.Acquire { arbiter } ->
    w8 b 15;
    wint b arbiter
  | Trace.Cede { arbiter } ->
    w8 b 16;
    wint b arbiter
  | Trace.Forward { arbiter; to_ } ->
    w8 b 17;
    wint b arbiter;
    wint b to_
  | Trace.Grant { to_ } ->
    w8 b 18;
    wint b to_

let rkind c : Trace.kind =
  match r8 c with
  | 0 ->
    let dst = rint c in
    let msg = rstr c in
    Trace.Send { dst; msg }
  | 1 ->
    let src = rint c in
    let msg = rstr c in
    Trace.Receive { src; msg }
  | 2 -> Trace.Enter_cs
  | 3 -> Trace.Exit_cs
  | 4 -> Trace.Timer (rint c)
  | 5 -> Trace.Crash
  | 6 -> Trace.Recover
  | 7 ->
    let dst = rint c in
    let reason = rstr c in
    Trace.Drop { dst; reason }
  | 8 -> Trace.Duplicate { dst = rint c }
  | 9 -> Trace.Partition { heal = rbool c }
  | 10 -> Trace.Suspect (rint c)
  | 11 -> Trace.Trust (rint c)
  | 12 -> Trace.Note (rstr c)
  | 13 -> Trace.Request
  | 14 ->
    let n = rint c in
    if n < 0 || n > 1_000_000 then raise (Bad "bad quorum length");
    Trace.Adopt_quorum (List.init n (fun _ -> rint c))
  | 15 -> Trace.Acquire { arbiter = rint c }
  | 16 -> Trace.Cede { arbiter = rint c }
  | 17 ->
    let arbiter = rint c in
    let to_ = rint c in
    Trace.Forward { arbiter; to_ }
  | 18 -> Trace.Grant { to_ = rint c }
  | t -> raise (Bad (Printf.sprintf "bad trace-kind tag %d" t))

let wentry b (e : Trace.entry) =
  wf64 b e.Trace.time;
  wint b e.Trace.site;
  wkind b e.Trace.kind

let rentry c =
  let time = rf64 c in
  let site = rint c in
  let kind = rkind c in
  { Trace.time; site; kind }

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
  | Metrics_v2 of { site : int; snapshot : Dmx_obs.Snapshot.t }

(* ---- Dmx_obs.Snapshot series ---- *)

let wseries b (s : Dmx_obs.Snapshot.series) =
  wstr b s.Dmx_obs.Snapshot.name;
  wint b (List.length s.labels);
  List.iter
    (fun (k, v) ->
      wstr b k;
      wstr b v)
    s.labels;
  match s.value with
  | Dmx_obs.Snapshot.Counter v ->
    w8 b 0;
    wint b v
  | Dmx_obs.Snapshot.Gauge v ->
    w8 b 1;
    wint b v
  | Dmx_obs.Snapshot.Histogram h ->
    w8 b 2;
    wint b (Array.length h.buckets);
    Array.iter (wint b) h.buckets;
    wint b h.count;
    wint b h.sum;
    wint b h.max

let rseries c =
  let name = rstr c in
  let n = rint c in
  if n < 0 || n > 64 then raise (Bad "bad label count");
  let labels =
    List.init n (fun _ ->
        let k = rstr c in
        let v = rstr c in
        (k, v))
  in
  let value =
    match r8 c with
    | 0 -> Dmx_obs.Snapshot.Counter (rint c)
    | 1 -> Dmx_obs.Snapshot.Gauge (rint c)
    | 2 ->
      let nb = rint c in
      if nb < 0 || nb > 1024 then raise (Bad "bad bucket count");
      let buckets = Array.init nb (fun _ -> rint c) in
      let count = rint c in
      let sum = rint c in
      let max = rint c in
      Dmx_obs.Snapshot.Histogram { buckets; count; sum; max }
    | t -> raise (Bad (Printf.sprintf "bad series kind %d" t))
  in
  Dmx_obs.Snapshot.series ~name ~labels value

let encode frame =
  let b = Buffer.create 64 in
  w8 b version;
  (match frame with
  | Hello { site; inc } ->
    w8 b 0;
    wint b site;
    wf64 b inc
  | Heartbeat { site; time } ->
    w8 b 1;
    wint b site;
    wf64 b time
  | Workload { since } ->
    w8 b 3;
    wf64 b since
  | Metrics { site; executions; sent; received; kinds; reliable } ->
    w8 b 5;
    wint b site;
    wint b executions;
    wint b sent;
    wint b received;
    wint b (List.length kinds);
    List.iter
      (fun (k, v) ->
        wstr b k;
        wint b v)
      kinds;
    wint b (List.length reliable);
    List.iter
      (fun (k, v) ->
        wstr b k;
        wint b v)
      reliable
  | Shutdown -> w8 b 6
  | Open_session { session; inc } ->
    w8 b 7;
    wint b session;
    wf64 b inc
  | Acquire { session; lock; req } ->
    w8 b 8;
    wint b session;
    wstr b lock;
    wint b req
  | Release_lock { session; lock; req } ->
    w8 b 9;
    wint b session;
    wstr b lock;
    wint b req
  | Renew { session; lock; req } ->
    w8 b 10;
    wint b session;
    wstr b lock;
    wint b req
  | Grant { session; lock; req; deadline } ->
    w8 b 11;
    wint b session;
    wstr b lock;
    wint b req;
    wf64 b deadline
  | Deny { session; lock; req; reason } ->
    w8 b 12;
    wint b session;
    wstr b lock;
    wint b req;
    wstr b reason
  | Expire { session; lock; req } ->
    w8 b 13;
    wint b session;
    wstr b lock;
    wint b req
  | Sproto { shard; src; dst; payload } ->
    w8 b 14;
    wint b shard;
    wint b src;
    wint b dst;
    wstr b payload
  | Strace { shard; site; entries } ->
    w8 b 15;
    wint b shard;
    wint b site;
    wint b (List.length entries);
    List.iter (wentry b) entries
  | Metrics_v2 { site; snapshot } ->
    w8 b 16;
    wint b site;
    wint b (List.length snapshot);
    List.iter (wseries b) snapshot);
  Buffer.contents b

let decode s =
  match
    let c = { s; pos = 0 } in
    let v = r8 c in
    if v <> version then
      raise (Bad (Printf.sprintf "version %d, expected %d" v version));
    let frame =
      match r8 c with
      | 0 ->
        let site = rint c in
        let inc = rf64 c in
        Hello { site; inc }
      | 1 ->
        let site = rint c in
        let time = rf64 c in
        Heartbeat { site; time }
      (* tags 2 and 4 (v1's Proto and Trace_batch) are retired: shard 0
         of Sproto/Strace carries that traffic *)
      | 3 -> Workload { since = rf64 c }
      | 5 ->
        let site = rint c in
        let executions = rint c in
        let sent = rint c in
        let received = rint c in
        let n = rint c in
        if n < 0 || n > 1_000_000 then raise (Bad "bad kind-count length");
        let kinds =
          List.init n (fun _ ->
              let k = rstr c in
              let v = rint c in
              (k, v))
        in
        let m = rint c in
        if m < 0 || m > 1_000_000 then raise (Bad "bad reliable-count length");
        let reliable =
          List.init m (fun _ ->
              let k = rstr c in
              let v = rint c in
              (k, v))
        in
        Metrics { site; executions; sent; received; kinds; reliable }
      | 6 -> Shutdown
      | 7 ->
        let session = rint c in
        let inc = rf64 c in
        Open_session { session; inc }
      | 8 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        Acquire { session; lock; req }
      | 9 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        Release_lock { session; lock; req }
      | 10 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        Renew { session; lock; req }
      | 11 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        let deadline = rf64 c in
        Grant { session; lock; req; deadline }
      | 12 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        let reason = rstr c in
        Deny { session; lock; req; reason }
      | 13 ->
        let session = rint c in
        let lock = rstr c in
        let req = rint c in
        Expire { session; lock; req }
      | 14 ->
        let shard = rint c in
        let src = rint c in
        let dst = rint c in
        let payload = rstr c in
        Sproto { shard; src; dst; payload }
      | 15 ->
        let shard = rint c in
        let site = rint c in
        let n = rint c in
        if n < 0 || n > 10_000_000 then raise (Bad "bad batch length");
        let entries = List.init n (fun _ -> rentry c) in
        Strace { shard; site; entries }
      | 16 ->
        let site = rint c in
        let n = rint c in
        if n < 0 || n > 1_000_000 then raise (Bad "bad series count");
        let raw = List.init n (fun _ -> rseries c) in
        (* re-canonicalize: order is a property of snapshots, not the
           wire; a repeated series is corruption *)
        let snapshot =
          try Dmx_obs.Snapshot.normalize raw
          with Invalid_argument e -> raise (Bad e)
        in
        Metrics_v2 { site; snapshot }
      | t -> raise (Bad (Printf.sprintf "bad frame tag %d" t))
    in
    finished c "frame";
    frame
  with
  | frame -> Ok frame
  | exception Bad e -> Error e

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
