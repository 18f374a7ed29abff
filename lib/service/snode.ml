(* The live service daemon: one process hosting this node's slice of
   every shard behind a transport, the chaos shim and heartbeats, started
   by the driver through the environment trampoline. It speaks the
   session/lease control frames and runs a Host. *)

module Trace = Dmx_sim.Trace
module B = Dmx_quorum.Builder
module Wire = Dmx_net.Wire
module Transport_sig = Dmx_net.Transport_sig
module Transports = Dmx_net.Transports
module Chaos = Dmx_net.Chaos
module Net = Dmx_sim.Network
module Detector = Dmx_sim.Detector

type spec = {
  site : int;
  n : int;
  node_ports : int array;
  supervisor_port : int;
  protocol : string;
  quorum : string;
  shards : int;
  lease : float;  (* lease duration, seconds *)
  max_batch : int;
  seed : int;
  epoch : float;
  detector : Detector.config;
  rto : float;
  max_seconds : float;
  transport : string;
  chaos : Net.fault_plan;
  metrics_port : int;  (* 0 = no scrape listener *)
}

let env_var = "DMX_SERVICE_SPEC"

(* The chaos plan rides as its .dmxrepro fault lines, escaped to one
   token: the fields here are space-separated, and the lines contain
   neither '~' nor ';'. *)
let chaos_token plan =
  String.concat ";" (Net.fault_lines plan)
  |> String.map (function ' ' -> '~' | c -> c)

let chaos_of_token ~n tok =
  String.split_on_char ';' tok
  |> List.filter (( <> ) "")
  |> List.map (String.map (function '~' -> ' ' | c -> c))
  |> Net.faults_of_lines ~n
  |> Result.fold ~ok:Fun.id ~error:failwith

let spec_to_string s =
  Printf.sprintf
    "site=%d n=%d ports=%s sup=%d proto=%s quorum=%s shards=%d lease=%h \
     batch=%d seed=%d epoch=%h hb=%h hbto=%h rto=%h max=%h trans=%s chaos=%s \
     mport=%d"
    s.site s.n
    (String.concat ","
       (Array.to_list (Array.map string_of_int s.node_ports)))
    s.supervisor_port s.protocol s.quorum s.shards s.lease s.max_batch s.seed
    s.epoch s.detector.period s.detector.timeout s.rto s.max_seconds s.transport
    (chaos_token s.chaos)
    s.metrics_port

let spec_of_string str =
  try
    let kv =
      String.split_on_char ' ' str
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             match String.index_opt s '=' with
             | Some i ->
               ( String.sub s 0 i,
                 String.sub s (i + 1) (String.length s - i - 1) )
             | None -> failwith ("bad field " ^ s))
    in
    let get k =
      match List.assoc_opt k kv with
      | Some v -> v
      | None -> failwith ("missing field " ^ k)
    in
    let geti k = int_of_string (get k) in
    let getf k = float_of_string (get k) in
    Ok
      {
        site = geti "site";
        n = geti "n";
        node_ports =
          get "ports" |> String.split_on_char ','
          |> List.map int_of_string |> Array.of_list;
        supervisor_port = geti "sup";
        protocol = get "proto";
        quorum = get "quorum";
        shards = geti "shards";
        lease = getf "lease";
        max_batch = geti "batch";
        seed = geti "seed";
        epoch = getf "epoch";
        detector = { Detector.period = getf "hb"; timeout = getf "hbto" };
        rto = getf "rto";
        max_seconds = getf "max";
        transport = get "trans";
        chaos = chaos_of_token ~n:(geti "n") (get "chaos");
        metrics_port =
          (match List.assoc_opt "mport" kv with
          | Some p -> int_of_string p
          | None -> 0);
      }
  with e ->
    Error (Printf.sprintf "bad service spec %S: %s" str (Printexc.to_string e))

let supervisor_silence_limit = 30.0

(* Control frames are anonymous on a datagram transport, so each one
   counts as driver contact by itself. *)
let from_driver : Wire.frame -> bool = function
  | Open_session _ | Acquire _ | Release_lock _ | Renew _ | Shutdown
  | Workload _ ->
    true
  | _ -> false

module Run (P : Dmx_sim.Protocol.PROTOCOL) = struct
  module H = Host.Make (P)

  let run (spec : spec) ~(codec : H.codec) ~live_stats ~attach_obs
      (pconfig : shard:int -> P.config) =
    let now () = Unix.gettimeofday () -. spec.epoch in
    let started = now () in
    let hello_inc = Unix.gettimeofday () in
    let peer_list =
      List.filter_map
        (fun j ->
          if j = spec.site then None
          else
            Some
              ( j,
                Unix.ADDR_INET (Unix.inet_addr_loopback, spec.node_ports.(j))
              ))
        (List.init spec.n Fun.id)
      @ [
          ( spec.n,
            Unix.ADDR_INET (Unix.inet_addr_loopback, spec.supervisor_port) );
        ]
    in
    let raw =
      Transports.create_exn spec.transport
        {
          Transport_sig.self = spec.site;
          listen_port = spec.node_ports.(spec.site);
          peers = peer_list;
          hello_inc;
        }
    in
    (* the grace period of a peer never heard from runs from here *)
    let detector =
      Detector.create spec.detector ~n:spec.n ~self:spec.site ~now:(now ())
    in
    let shim =
      if Net.is_trivial spec.chaos then None
      else
        Some
          (Chaos.create spec.chaos ~seed:spec.seed ~n:spec.n ~self:spec.site
             ~peers:(List.map fst peer_list) ~inner:raw)
    in
    let transport =
      match shim with Some c -> Chaos.handle c | None -> raw
    in
    (* timers: protocol and lease timers of every shard in one queue *)
    let timers = Dmx_sim.Event_queue.create () in
    let caps =
      {
        Host.now;
        send = transport.send;
        set_timer =
          (fun ~shard ~tag ~delay ->
            let at = now () +. delay in
            Dmx_sim.Event_queue.schedule timers
              ~time:(Float.max at (Dmx_sim.Event_queue.now timers))
              (shard, tag));
      }
    in
    let host =
      H.create ~caps ~codec ~self:spec.site ~n:spec.n ~shards:spec.shards
        ~lease:{ Dmx_core.Lease.duration = spec.lease; max_batch = spec.max_batch }
        ~seed:spec.seed ~pconfig
    in
    (* one registry per daemon: lease cells per shard, protocol cells via
       [attach_obs], transport/chaos probes — served on [metrics_port]
       and shipped in the final Metrics_v2 frame *)
    let reg = Dmx_obs.Registry.create () in
    H.attach_obs ~proto:attach_obs host reg;
    Transport_sig.register_obs reg ~prefix:"transport" transport;
    let suspicions = Dmx_obs.Registry.counter reg "detector.suspicions" in
    (match shim with Some c -> Chaos.register_obs reg c | None -> ());
    let scrape =
      if spec.metrics_port > 0 then
        Some
          (Dmx_net.Scrape.start ~port:spec.metrics_port (fun () ->
               Dmx_obs.Registry.snapshot reg))
      else None
    in
    (* trace streaming: per-shard Strace frames, chunked at 96 entries so
       a batch fits a UDP datagram *)
    let last_flush = ref (now ()) in
    let flush_traces () =
      List.iter
        (fun (shard, entries) ->
          let rec chunks = function
            | [] -> ()
            | es ->
              let rec take k acc = function
                | rest when k = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | e :: rest -> take (k - 1) (e :: acc) rest
              in
              let batch, rest = take 96 [] es in
              transport.send ~dst:spec.n
                (Wire.Strace { shard; site = spec.site; entries = batch });
              chunks rest
          in
          chunks entries)
        (H.drain_traces host);
      last_flush := now ()
    in
    let workload_seen = ref false in
    let last_super_contact = ref (now ()) in
    let last_hb = ref Float.neg_infinity in
    let shutdown = ref false in
    let metrics () =
      let reliable =
        H.lease_stats host
        @ H.fold_states host (fun acc st -> acc @ live_stats st) []
        @ (match shim with Some c -> Chaos.stats_alist c | None -> [])
        @ Transport_sig.stats_alist ~prefix:"transport" (transport.stats ())
      in
      let executions =
        Option.value ~default:0
          (List.assoc_opt "lease.grants" (H.lease_stats host))
      in
      transport.send ~dst:spec.n
        (Wire.Metrics
           {
             site = spec.site;
             executions;
             sent = H.sent host;
             received = H.received host;
             kinds = H.kinds_alist host;
             reliable;
           });
      transport.send ~dst:spec.n
        (Wire.Metrics_v2
           { site = spec.site; snapshot = Dmx_obs.Registry.snapshot reg })
    in
    while
      (not !shutdown)
      && now () -. !last_super_contact < supervisor_silence_limit
      && now () -. started < spec.max_seconds
    do
      if now () -. !last_hb >= spec.detector.period then begin
        last_hb := now ();
        transport.broadcast (Wire.Heartbeat { site = spec.site; time = now () });
        (* keep re-introducing ourselves until the workload epoch arrives:
           on a datagram transport either frame can simply be lost *)
        if not !workload_seen then
          transport.send ~dst:spec.n
            (Wire.Hello { site = spec.site; inc = hello_inc });
        List.iter
          (fun node ->
            Dmx_obs.Metric.Counter.incr suspicions;
            H.on_node_failure host ~node)
          (Detector.sweep detector ~now:(now ()))
      end;
      (* due timers *)
      let rec fire_timers () =
        match Dmx_sim.Event_queue.peek_time timers with
        | Some at when at <= now () ->
          Option.iter
            (fun { Dmx_sim.Event_queue.payload = shard, tag; _ } ->
              H.on_timer host ~shard ~tag)
            (Dmx_sim.Event_queue.next timers);
          fire_timers ()
        | Some _ | None -> ()
      in
      fire_timers ();
      H.tick host;
      (* network frames. Any frame from a site is evidence it is alive,
         and revokes a standing suspicion before the frame is handled. *)
      let rec drain () =
        match transport.poll () with
        | None -> ()
        | Some (src, frame) ->
          let at = now () in
          if src = spec.n || from_driver frame then last_super_contact := at;
          if Detector.heartbeat detector ~src ~now:at then
            H.on_node_recovery host ~node:src;
          (match frame with
          | Wire.Shutdown -> shutdown := true
          | Wire.Workload { since } ->
            (* repeats carry the same epoch, so re-anchoring is harmless *)
            workload_seen := true;
            Option.iter (fun c -> Chaos.set_zero c (spec.epoch +. since)) shim
          | _ -> H.on_frame host frame);
          drain ()
      in
      drain ();
      H.tick host;
      if now () -. !last_flush > 0.2 then flush_traces ();
      Unix.sleepf 0.0002
    done;
    flush_traces ();
    metrics ();
    (* let the final frames drain before tearing the sockets down *)
    Unix.sleepf 0.1;
    (match scrape with Some s -> Dmx_net.Scrape.stop s | None -> ());
    transport.close ()
end

let run_named (spec : spec) =
  match B.parse_kind spec.quorum with
  | Error e -> Error e
  | Ok quorum -> (
    let n = spec.n in
    if spec.site < 0 || spec.site >= n then Error "site out of range"
    else if Array.length spec.node_ports <> n then Error "ports/n mismatch"
    else if spec.shards < 1 then Error "shards must be >= 1"
    else
      match Host.protocol ~name:spec.protocol ~quorum ~n ~rto:spec.rto with
      | Error e -> Error e
      | Ok
          (Host.Protocol
            { proto = (module P); pconfig; live_stats; attach_obs }) ->
        let module R = Run (P) in
        R.run spec
          ~codec:
            { R.H.encode = Wire.encode_message; decode = Wire.decode_message }
          ~live_stats ~attach_obs pconfig;
        Ok ())

let run_as_child_if_requested () =
  match Sys.getenv_opt env_var with
  | None -> ()
  | Some s -> (
    match spec_of_string s with
    | Error e ->
      prerr_endline e;
      exit 2
    | Ok spec -> (
      match run_named spec with
      | Ok () -> exit 0
      | Error e ->
        prerr_endline e;
        exit 2))
