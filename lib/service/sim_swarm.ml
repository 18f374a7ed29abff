(* The deterministic twin of the live swarm driver: the same Host logic
   and the same Clients population, but on one virtual-time Event_queue
   with a seeded RNG driving think times, abandon decisions and link
   latencies. Two runs with the same config produce the same traces,
   the same verdicts and the same percentiles — which makes the lock
   service fuzzable and every failure replayable from its seed. *)

module Rng = Dmx_sim.Rng
module Event_queue = Dmx_sim.Event_queue
module Network = Dmx_sim.Network
module B = Dmx_quorum.Builder
module Wire = Dmx_net.Wire

type config = {
  n : int;
  shards : int;
  clients : int;
  locks : int;  (* 0 = one per client *)
  rounds : int;
  think : float;
  hold : float;
  lease : float;
  max_batch : int;
  abandon : float;
  protocol : string;
  quorum : B.kind;
  seed : int;
  kills : (float * int) list;
  restarts : (float * int) list;
  latency : float;  (* mean one-way link latency, seconds *)
  detect_delay : float;  (* failure-notification lag at peers *)
  rto : float;
  max_time : float;  (* virtual-time failsafe *)
}

let default ~n =
  {
    n;
    shards = 4;
    clients = 64;
    locks = 0;
    rounds = 3;
    think = 0.05;
    hold = 0.002;
    lease = 2.0;
    max_batch = 8;
    abandon = 0.0;
    protocol = "ft-delay-optimal";
    quorum = B.Tree;
    seed = 42;
    kills = [];
    restarts = [];
    latency = 0.001;
    detect_delay = 0.05;
    rto = 0.05;
    max_time = 600.0;
  }

let workload (cfg : config) =
  {
    Clients.n = cfg.n;
    shards = cfg.shards;
    clients = cfg.clients;
    locks = cfg.locks;
    rounds = cfg.rounds;
    think = cfg.think;
    hold = cfg.hold;
    lease = cfg.lease;
    abandon = cfg.abandon;
  }

let resolve (cfg : config) =
  Result.map_error (( ^ ) "sim-swarm: ")
    (match
       Clients.check (workload cfg) ~kills:cfg.kills ~restarts:cfg.restarts
     with
    | Ok () when cfg.latency <= 0.0 -> Error "latency must be positive"
    | Ok () ->
      Host.protocol ~name:cfg.protocol ~quorum:cfg.quorum ~n:cfg.n ~rto:cfg.rto
    | Error _ as e -> e)

let validate cfg = Result.map ignore (resolve cfg)

module Run (P : Dmx_sim.Protocol.PROTOCOL) = struct
  module H = Host.Make (P)

  type ev =
    | Frame of { dst : int; frame : Wire.frame }  (* dst = n: the driver *)
    | Timer of { node : int; gen : int; shard : int; tag : int }
    | Wakeup of { client : int; what : Clients.what }
    | Kill of int
    | Restart of int
    | Notify of { node : int; about : int; up : bool }

  let run (cfg : config) ~(codec : H.codec) ?(live_stats = fun _ -> [])
      ?(attach_obs = fun _ ~labels:_ _ -> ())
      (pconfig : shard:int -> P.config) =
    match validate cfg with
    | Error _ as e -> e
    | Ok () ->
      let q = Event_queue.create () in
      let now () = Event_queue.now q in
      let rng = Rng.create cfg.seed in
      let sched ~at ev =
        Event_queue.schedule q ~time:(Float.max at (now ())) ev
      in
      (* per-directed-channel FIFO, like the TCP live path: a later frame
         never overtakes an earlier one. the driver is endpoint [n]. *)
      let net =
        Network.create ~n:(cfg.n + 1)
          ~delay:(Network.Exponential { mean = cfg.latency })
          ~rng ()
      in
      let deliver ~src ~dst frame =
        match Network.delivery_time net ~src ~dst ~now:(now ()) with
        | Some at -> sched ~at (Frame { dst; frame })
        | None -> assert false (* no faults, and no endpoint ever crashes *)
      in
      let clients =
        Clients.create
          ~caps:
            {
              Clients.now;
              send = (fun ~node frame -> deliver ~src:cfg.n ~dst:node frame);
              wake =
                (fun ~at ~client what -> sched ~at (Wakeup { client; what }));
            }
          (workload cfg)
          ~retry_interval:(Float.max (4.0 *. cfg.rto) (8.0 *. cfg.latency))
          ~inc:1.0 ~rng
      in
      let alive = Clients.alive clients in
      let gens = Array.make cfg.n 0 in
      (* the twin of each daemon's registry, recorded under virtual time,
         so a seeded run's snapshots are a pure function of the config *)
      let node_regs = Array.init cfg.n (fun _ -> Dmx_obs.Registry.create ()) in
      let make_host node =
        let caps =
          {
            Host.now;
            send = deliver ~src:node;
            set_timer =
              (fun ~shard ~tag ~delay ->
                sched ~at:(now () +. delay)
                  (Timer { node; gen = gens.(node); shard; tag }));
          }
        in
        let host =
          H.create ~caps ~codec ~self:node ~n:cfg.n ~shards:cfg.shards
            ~lease:
              { Dmx_core.Lease.duration = cfg.lease; max_batch = cfg.max_batch }
            ~seed:(cfg.seed + node) ~pconfig
        in
        (* fresh registry per incarnation, like a restarted daemon *)
        let reg = Dmx_obs.Registry.create () in
        H.attach_obs ~proto:attach_obs host reg;
        node_regs.(node) <- reg;
        host
      in
      let hosts = Array.init cfg.n (fun node -> make_host node) in
      let collect_traces node =
        List.iter
          (fun (shard, es) -> Clients.push_trace clients ~shard es)
          (H.drain_traces hosts.(node))
      in
      let notify_peers site ~up =
        for peer = 0 to cfg.n - 1 do
          if peer <> site && alive peer then
            sched
              ~at:(now () +. cfg.detect_delay)
              (Notify { node = peer; about = site; up })
        done
      in
      let kill_node site =
        if alive site then begin
          collect_traces site;
          gens.(site) <- gens.(site) + 1;
          notify_peers site ~up:false;
          Clients.kill clients site
        end
      in
      let restart_node site =
        if not (alive site) then begin
          hosts.(site) <- make_host site;
          H.tick hosts.(site);
          Clients.restart clients site;
          notify_peers site ~up:true
        end
      in
      (* seed the schedule *)
      Clients.start clients;
      List.iter (fun (t, site) -> sched ~at:t (Kill site)) cfg.kills;
      List.iter (fun (t, site) -> sched ~at:t (Restart site)) cfg.restarts;
      (* the deterministic main loop *)
      let stuck = ref false in
      while
        (not !stuck)
        && Clients.completed clients < cfg.clients
        && now () <= cfg.max_time
      do
        match Event_queue.next q with
        | None -> stuck := true
        | Some { payload; _ } -> (
          match payload with
          | Frame { dst; frame } when dst = cfg.n ->
            Clients.on_frame clients frame
          | Frame { dst; frame } ->
            if alive dst then begin
              H.on_frame hosts.(dst) frame;
              H.tick hosts.(dst)
            end
          | Timer { node; gen; shard; tag } ->
            if alive node && gens.(node) = gen then begin
              H.on_timer hosts.(node) ~shard ~tag;
              H.tick hosts.(node)
            end
          | Wakeup { client; what } -> Clients.on_wake clients ~client what
          | Kill site -> kill_node site
          | Restart site -> restart_node site
          | Notify { node; about; up } ->
            if alive node then begin
              (if up then H.on_node_recovery hosts.(node) ~node:about
               else H.on_node_failure hosts.(node) ~node:about);
              H.tick hosts.(node)
            end)
      done;
      if Clients.completed clients < cfg.clients then
        Error
          (Printf.sprintf
             "sim-swarm: %s with %d/%d clients finished at t=%.3f"
             (if !stuck then "no events left" else "virtual-time limit hit")
             (Clients.completed clients) cfg.clients (now ()))
      else begin
        let node_stats = Array.make cfg.n [] in
        let node_snapshots = Array.make cfg.n Dmx_obs.Snapshot.empty in
        Array.iteri
          (fun node host ->
            if alive node then begin
              collect_traces node;
              node_stats.(node) <-
                H.lease_stats host
                @ H.fold_states host (fun acc st -> acc @ live_stats st) [];
              node_snapshots.(node) <-
                Dmx_obs.Registry.snapshot node_regs.(node)
            end)
          hosts;
        Ok
          (Swarm.distil ~n:cfg.n
             {
               Swarm.tally = Clients.tally clients;
               crashy = cfg.kills <> [];
               lossy = false;
               elapsed = now ();
               node_stats;
               node_snapshots;
             })
      end
end

let run_named (cfg : config) =
  match resolve cfg with
  | Error _ as e -> e
  | Ok (Host.Protocol { proto = (module P); pconfig; live_stats; attach_obs })
    ->
    let module R = Run (P) in
    R.run cfg
      ~codec:{ R.H.encode = Wire.encode_message; decode = Wire.decode_message }
      ~live_stats ~attach_obs pconfig
