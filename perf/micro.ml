(* Unit costs of single layers, measured in isolation. Each measurement
   runs its body in batches until a time budget is spent (at least five
   batches) and reports the median batch's cost per call, so one slow
   batch (a GC slice, a preemption) does not move the figure. These feed
   the per-layer metrics and the unit-cost model in layers.json. *)

module Wire = Dmx_net.Wire
module Msg = Dmx_core.Messages
module Trace = Dmx_sim.Trace
module Rng = Dmx_sim.Rng
module Eq = Dmx_sim.Event_queue
module Net = Dmx_sim.Network
module Lease = Dmx_core.Lease
module Metric = Dmx_obs.Metric

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ns per call of [f i] ([i] counts calls, so bodies can vary inputs) *)
let ns_per_op ~budget_s ?(batch = 1000) f =
  f 0;
  let deadline = Span.now_ns () + int_of_float (budget_s *. 1e9) in
  let samples = ref [] and n = ref 0 and i = ref 1 in
  while !n < 5 || Span.now_ns () < deadline do
    let t0 = Span.now_ns () in
    for _ = 1 to batch do
      f !i;
      incr i
    done;
    samples :=
      (float_of_int (Span.now_ns () - t0) /. float_of_int batch) :: !samples;
    incr n
  done;
  median (Array.of_list !samples)

(* ---- wire codec ---- *)

let ts = { Dmx_sim.Timestamp.sn = 4711; site = 3 }

let data payload =
  Msg.Data
    { inc = 1.7e9; dst_inc = 1.7e9; seq = 1234; base = 1200; retx = false; payload }

let request = data (Msg.Request ts)
let reply = data (Msg.Reply { arbiter = 1; for_req = ts; next = None })

(* 32 entries of the kinds a host streams per shard: sends and receives
   carry rendered payloads, custody events and CS edges do not *)
let strace_entries =
  let msg m = Format.asprintf "%a" Msg.pp m in
  List.init 32 (fun i ->
      let kind =
        match i mod 4 with
        | 0 -> Trace.Send { dst = 1; msg = msg (Msg.Request ts) }
        | 1 -> Trace.Receive { src = 1; msg = msg (Msg.Reply { arbiter = 1; for_req = ts; next = None }) }
        | 2 -> Trace.Acquire { arbiter = 1 }
        | _ -> if i mod 8 = 3 then Trace.Enter_cs else Trace.Exit_cs
      in
      { Trace.time = float_of_int i *. 1e-3; site = 0; kind })

let lock = "lock-12"

(* (name, frame): protocol frames are built from their message, so their
   encode/decode cost includes the protocol codec (Wire.encode_message),
   as on the daemon's send path *)
let frames =
  let sproto m = fun () ->
    Wire.Sproto { shard = 3; src = 0; dst = 1; payload = Wire.encode_message m }
  in
  let const f = fun () -> f in
  [
    ("acquire", const (Wire.Acquire { session = 1234; lock; req = 7 }));
    ("grant", const (Wire.Grant { session = 1234; lock; req = 7; deadline = 12.5 }));
    ("release_lock", const (Wire.Release_lock { session = 1234; lock; req = 7 }));
    ("sproto_request", sproto request);
    ("sproto_reply", sproto reply);
    ("strace32", const (Wire.Strace { shard = 3; site = 0; entries = strace_entries }));
  ]

let decode_full s =
  match Wire.decode s with
  | Ok (Wire.Sproto { payload; _ }) -> ignore (Sys.opaque_identity (Wire.decode_message payload))
  | Ok f -> ignore (Sys.opaque_identity f)
  | Error e -> failwith ("Micro: frame does not round-trip: " ^ e)

(* (name, encode ns, decode ns, bytes on the wire incl. the length prefix) *)
let wire ~budget_s =
  List.map
    (fun (name, make) ->
      let bytes = Wire.encode (make ()) in
      decode_full bytes;
      let enc = ns_per_op ~budget_s (fun _ -> ignore (Sys.opaque_identity (Wire.encode (make ())))) in
      let dec = ns_per_op ~budget_s (fun _ -> decode_full bytes) in
      (name, enc, dec, String.length bytes + 4))
    frames

(* ---- simulator substrate ---- *)

(* one next + one schedule, at a steady queue depth *)
let event_queue ~budget_s ~depth =
  let q = Eq.create () in
  let rng = Rng.create 7 in
  let offs = Array.init 4096 (fun _ -> Rng.float rng 10.0) in
  for i = 0 to max 1 depth - 1 do
    Eq.schedule q ~time:offs.(i land 4095) i
  done;
  ns_per_op ~budget_s (fun i ->
      match Eq.next q with
      | Some e -> Eq.schedule q ~time:(e.Eq.time +. offs.(i land 4095)) e.Eq.payload
      | None -> ())

let network ~budget_s ~n ~delay ~faults =
  let n = max 2 n in
  let net =
    Net.create ~faults ~fault_rng:(Rng.create 3) ~n ~delay ~rng:(Rng.create 5) ()
  in
  ns_per_op ~budget_s (fun i ->
      let src = i mod n in
      let dst = (src + 1 + (i / n mod (n - 1))) mod n in
      ignore (Sys.opaque_identity (Net.transmit net ~src ~dst ~now:(float_of_int i *. 1e-3))))

let quorum_build_ms ~budget_s kind ~n =
  ns_per_op ~budget_s ~batch:1 (fun _ ->
      ignore (Sys.opaque_identity (Dmx_quorum.Builder.req_sets kind ~n)))
  /. 1e6

(* ---- lease machine: acquire -> granted -> release, with a fake io ---- *)

let lease ~budget_s =
  let l =
    Lease.create { Lease.duration = 0.5; max_batch = 8 }
      ~io:{ Lease.now = (fun () -> 0.0); set_timer = (fun ~delay:_ -> ()) }
  in
  let cycle i =
    let a = Lease.acquire l ~session:1 ~req:i in
    let g = Lease.granted l in
    let r = Lease.release l ~session:1 ~req:i in
    (a, g, r)
  in
  (match cycle 0 with
  | [ Lease.Request_cs ], [ Lease.Grant _ ], [ Lease.Release_cs ] -> ()
  | _ -> failwith "Micro.lease: unexpected action sequence");
  ns_per_op ~budget_s (fun i -> ignore (Sys.opaque_identity (cycle i)))

(* ---- metrics record path ---- *)

let obs_observe ~budget_s =
  let h = Metric.Histogram.create () in
  ns_per_op ~budget_s (fun i -> Metric.Histogram.observe h (i land 4095))

let obs_incr ~budget_s =
  let c = Metric.Counter.create () in
  ns_per_op ~budget_s (fun _ -> Metric.Counter.incr c)
