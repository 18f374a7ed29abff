(* The client-swarm driver: spawn n service daemons, run a closed-loop
   population of clients against the sharded lock namespace, optionally
   kill and restart daemons mid-run, and distil each shard's merged
   trace through the unmodified oracle.

   The driver is both supervisor and session gateway: every client
   session is multiplexed over the driver's single transport endpoint
   (peer id n), so 10k logical clients cost one connection per node,
   not 10k sockets. Clients are tiny state machines driven off one
   wakeup heap — think, acquire, hold (renewing if the hold outlives
   half a lease), release or abandon, repeat. *)

module Trace = Dmx_sim.Trace
module Oracle = Dmx_sim.Oracle
module Summary = Dmx_sim.Stats.Summary
module Rng = Dmx_sim.Rng
module B = Dmx_quorum.Builder
module Wire = Dmx_net.Wire
module Transport_sig = Dmx_net.Transport_sig
module Transports = Dmx_net.Transports
module Chaos = Dmx_net.Chaos
module Spawn = Dmx_net.Spawn

type config = {
  n : int;
  shards : int;
  clients : int;
  locks : int;
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
  log_dir : string option;
  timeout : float;
  hb_period : float;
  hb_timeout : float;
  rto : float;
  transport : string;
  chaos : Chaos.plan;
  hello_timeout : float;
  ports : int list option;  (* n node ports then the driver's *)
  metrics_base_port : int;  (* daemon [site] scrapes on base + site; 0 = off *)
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
    log_dir = None;
    timeout = 120.0;
    hb_period = 0.1;
    hb_timeout = 1.0;
    rto = 0.25;
    transport = "tcp";
    chaos = Chaos.no_faults;
    hello_timeout = 10.0;
    ports = None;
    metrics_base_port = 0;
  }

type shard_outcome = {
  shard : int;
  acquires : int;
  grants : int;
  expiries : int;
  latency : Summary.t;
  verdict : Oracle.verdict;
  occupancy_violations : int;
  trace_entries : int;
}

type outcome = {
  per_shard : shard_outcome array;
  wall_seconds : float;
  completed_clients : int;
  rehomed_sessions : int;
  live_stats : (string * int) list array;
  snapshots : Dmx_obs.Snapshot.t array;
  driver_snapshot : Dmx_obs.Snapshot.t;
}

let merged_snapshot o = Dmx_obs.Snapshot.merge_all (Array.to_list o.snapshots)

(* ---- client state machines ---- *)

type phase =
  | Thinking
  | Waiting of { sent_at : float; mutable last_try : float }
  | Holding of { release_at : float }
  | Draining  (* abandoned hold: silent until Expire (or the failsafe) *)
  | Done

type client = {
  id : int;  (* doubles as the session id *)
  lock : string;
  shard : int;
  mutable node : int;
  mutable inc : float;
  mutable opened : bool;  (* Open_session sent to the current node *)
  mutable phase : phase;
  mutable round : int;  (* completed rounds *)
  mutable req : int;  (* current round's request id *)
}

type what = Start | Retry | Release | Renew | Failsafe

type wakeup = { at : float; client : int; what : what; seq : int }

(* ---- validation ---- *)

let check (cfg : config) =
  if cfg.n < 2 then Error "need at least 2 nodes"
  else if cfg.shards < 1 then Error "shards must be >= 1"
  else if cfg.clients < 1 then Error "clients must be >= 1"
  else if cfg.rounds < 1 then Error "rounds must be >= 1"
  else if cfg.think < 0.0 || cfg.hold < 0.0 then
    Error "think/hold must be non-negative"
  else if cfg.lease <= 0.0 then Error "lease must be positive"
  else if cfg.abandon < 0.0 || cfg.abandon > 1.0 then
    Error "abandon must be a probability"
  else if
    not (List.mem cfg.protocol [ "delay-optimal"; "ft-delay-optimal" ])
  then
    Error
      (Printf.sprintf
         "unknown protocol %S (want delay-optimal or ft-delay-optimal)"
         cfg.protocol)
  else if not (B.supports cfg.quorum ~n:cfg.n) then
    Error
      (Format.asprintf "quorum %a does not support n=%d" B.pp_kind cfg.quorum
         cfg.n)
  else if
    List.exists (fun (_, s) -> s < 0 || s >= cfg.n) (cfg.kills @ cfg.restarts)
  then Error "kill/restart node out of range"
  else if
    List.exists
      (fun (rt, s) ->
        not (List.exists (fun (kt, ks) -> ks = s && kt < rt) cfg.kills))
      cfg.restarts
  then Error "every restart needs an earlier kill of the same node"
  else if List.length cfg.kills >= cfg.n then Error "cannot kill every node"
  else if not (List.mem cfg.transport Transports.names) then
    Error
      (Printf.sprintf "unknown transport %S (want %s)" cfg.transport
         (String.concat " or " Transports.names))
  else if not (cfg.hello_timeout > 0.0) then
    Error "hello_timeout must be positive"
  else if
    match cfg.ports with
    | Some ps -> List.length ps <> cfg.n + 1
    | None -> false
  then Error "ports list must have n+1 entries (nodes + driver)"
  else
    match Chaos.validate { cfg.chaos with Chaos.n = cfg.n } with
    | () -> Ok ()
    | exception Invalid_argument e -> Error e

let validate cfg = Result.map_error (( ^ ) "swarm: ") (check cfg)

(* ---- distillation ---- *)

(* Sort one shard's merged trace and judge it: the oracle, with FIFO off
   on crashy or lossy runs and custody off on crashy ones, plus the
   independent occupancy scan. *)
let judge ~n ~crashy ~lossy entries =
  let es =
    List.stable_sort
      (fun (a : Trace.entry) b -> Float.compare a.Trace.time b.Trace.time)
      entries
  in
  let verdict =
    Oracle.check
      {
        (Oracle.default ~n) with
        Oracle.fifo = not (crashy || lossy);
        custody = not crashy;
      }
      es ~truncated:false
  in
  (es, verdict, Dmx_sim.Occupancy.violations ~n es)

(* Shared by the live driver and the virtual-time simulator. *)
let distil ~n ~crashy ~lossy ~acquires ~grants ~expiries ~latency ~entries =
  Array.init (Array.length entries) (fun shard ->
      let es, verdict, occupancy_violations =
        judge ~n ~crashy ~lossy entries.(shard)
      in
      {
        shard;
        acquires = acquires.(shard);
        grants = grants.(shard);
        expiries = expiries.(shard);
        latency = latency.(shard);
        verdict;
        occupancy_violations;
        trace_entries = List.length es;
      })

(* ---- the driver ---- *)

type books = {
  shard_acquires : int array;
  shard_grants : int array;
  shard_expiries : int array;
  shard_latency : Summary.t array;
  client_grants : int array;
  shard_entries : Trace.entry list array;
  crashy : bool;
  lossy : bool;
  elapsed : float;
  clients_done : int;
  rehomed : int;
  node_stats : (string * int) list array;
  node_snapshots : Dmx_obs.Snapshot.t array;
  driver_obs : Dmx_obs.Snapshot.t;
}

let supervise (cfg : config) =
  match check cfg with
  | Error _ as e -> e
  | Ok () -> (
    let started_wall = Unix.gettimeofday () in
    let epoch = started_wall in
    let locks = if cfg.locks < 1 then cfg.clients else cfg.locks in
    let ports =
      match cfg.ports with
      | Some ps -> ps
      | None -> Spawn.alloc_ports (cfg.n + 1)
    in
    let sup_port = List.nth ports cfg.n in
    let node_ports = Array.of_list (List.filteri (fun i _ -> i < cfg.n) ports) in
    let plan =
      {
        cfg.chaos with
        Chaos.n = cfg.n;
        seed = (if cfg.chaos.Chaos.seed = 0 then cfg.seed else cfg.chaos.Chaos.seed);
      }
    in
    let spec_of site =
      {
        Snode.site;
        n = cfg.n;
        node_ports;
        supervisor_port = sup_port;
        protocol = cfg.protocol;
        quorum = Format.asprintf "%a" B.pp_kind cfg.quorum;
        shards = cfg.shards;
        lease = cfg.lease;
        max_batch = cfg.max_batch;
        seed = cfg.seed;
        epoch;
        hb_period = cfg.hb_period;
        hb_timeout = cfg.hb_timeout;
        rto = cfg.rto;
        max_seconds = cfg.timeout +. 30.0;
        transport = cfg.transport;
        chaos = plan;
        metrics_port =
          (if cfg.metrics_base_port = 0 then 0
           else cfg.metrics_base_port + site);
      }
    in
    let spawn site =
      Spawn.child ~log_dir:cfg.log_dir
        ~log_name:(Printf.sprintf "snode-%d.log" site)
        ~env_var:Snode.env_var
        ~spec:(Snode.spec_to_string (spec_of site))
    in
    let transport =
      Transports.create_exn cfg.transport
        {
          Transport_sig.self = cfg.n;
          listen_port = sup_port;
          peers =
            List.init cfg.n (fun i ->
                (i, Unix.ADDR_INET (Unix.inet_addr_loopback, node_ports.(i))));
          hb_period = cfg.hb_period;
          hb_timeout = cfg.hb_timeout;
          watch = [];
          hello_inc = epoch;
        }
    in
    let pids = Array.make cfg.n None in
    let cleanup () =
      Array.iter (Option.iter Spawn.kill_quietly) pids;
      Array.fill pids 0 cfg.n None;
      transport.close ()
    in
    try
      Array.iteri (fun site _ -> pids.(site) <- Some (spawn site)) pids;
      let now () = Unix.gettimeofday () -. epoch in
      let rng = Rng.create cfg.seed in
      let alive = Array.make cfg.n true in
      (* driver-side books *)
      let hello_inc = Array.make cfg.n Float.nan in
      (* newest batch first; concatenated in arrival order at the end so
         entries that share a timestamp keep their within-batch order
         through the final stable time-sort *)
      let shard_batches = Array.make cfg.shards [] in
      let push_batch shard es =
        if es <> [] then shard_batches.(shard) <- es :: shard_batches.(shard)
      in
      let live_stats = Array.make cfg.n [] in
      let snapshots = Array.make cfg.n Dmx_obs.Snapshot.empty in
      let acquires = Array.make cfg.shards 0 in
      let grants = Array.make cfg.shards 0 in
      let expiries = Array.make cfg.shards 0 in
      let latency = Array.init cfg.shards (fun _ -> Summary.create ()) in
      let client_grants = Array.make cfg.clients 0 in
      let rehomed = ref 0 in
      let completed = ref 0 in
      (* the driver's own registry: per-shard acquire-to-grant latency
         histograms (observed where [Summary.add] runs, so failover cost
         lands in both readouts) plus probes over the round counters *)
      let obs = Dmx_obs.Registry.create () in
      let acq_hist =
        Array.init cfg.shards (fun shard ->
            Dmx_obs.Registry.histogram obs
              ~labels:[ ("shard", string_of_int shard) ]
              "swarm.acquire_latency")
      in
      for shard = 0 to cfg.shards - 1 do
        let labels = [ ("shard", string_of_int shard) ] in
        Dmx_obs.Registry.probe obs ~labels "swarm.acquires" (fun () ->
            acquires.(shard));
        Dmx_obs.Registry.probe obs ~labels "swarm.grants" (fun () ->
            grants.(shard));
        Dmx_obs.Registry.probe obs ~labels "swarm.expiries" (fun () ->
            expiries.(shard))
      done;
      Dmx_obs.Registry.probe obs "swarm.rehomed_sessions" (fun () -> !rehomed);
      Dmx_obs.Registry.probe obs "swarm.completed_clients" (fun () ->
          !completed);
      (* clients *)
      let clients =
        Array.init cfg.clients (fun id ->
            let lock = Printf.sprintf "lock-%d" (id mod locks) in
            {
              id;
              lock;
              shard = Shard_map.shard_of_lock ~shards:cfg.shards lock;
              node = id mod cfg.n;
              inc = epoch;
              opened = false;
              phase = Thinking;
              round = 0;
              req = 0;
            })
      in
      let wakeups =
        Dmx_sim.Heap.create
          ~cmp:(fun a b ->
            let c = Float.compare a.at b.at in
            if c <> 0 then c else Int.compare a.seq b.seq)
          ()
      in
      let wseq = ref 0 in
      let wake ~at client what =
        incr wseq;
        Dmx_sim.Heap.add wakeups { at; client = client.id; what; seq = !wseq }
      in
      let think_delay () =
        if cfg.think <= 0.0 then 0.0 else Rng.exponential rng ~mean:cfg.think
      in
      let retry_interval = Float.max 0.25 (2.0 *. cfg.rto) in
      let send_open c =
        transport.send ~dst:c.node
          (Wire.Open_session { session = c.id; inc = c.inc });
        c.opened <- true
      in
      let send_acquire c =
        if not c.opened then send_open c;
        transport.send ~dst:c.node
          (Wire.Acquire { session = c.id; lock = c.lock; req = c.req })
      in
      let complete_round c =
        c.round <- c.round + 1;
        if c.round >= cfg.rounds then begin
          c.phase <- Done;
          incr completed
        end
        else begin
          c.phase <- Thinking;
          wake ~at:(now () +. think_delay ()) c Start
        end
      in
      let start_round c =
        if c.phase = Thinking then begin
          c.req <- c.round + 1;
          acquires.(c.shard) <- acquires.(c.shard) + 1;
          let t = now () in
          c.phase <- Waiting { sent_at = t; last_try = t };
          send_acquire c;
          wake ~at:(t +. retry_interval) c Retry
        end
      in
      let next_live node =
        let rec go k step =
          if step > cfg.n then node
          else if alive.(k) then k
          else go ((k + 1) mod cfg.n) (step + 1)
        in
        go ((node + 1) mod cfg.n) 0
      in
      (* The workload epoch, set when the hello phase ends. It anchors the
         daemons' chaos windows; a node keeps saying hello until it has
         one, so a restart (or a lost copy) is answered with it again. *)
      let since = ref None in
      let send_workload site =
        Option.iter
          (fun since -> transport.send ~dst:site (Wire.Workload { since }))
          !since
      in
      (* frame handling *)
      let handle_frame frame =
        match frame with
        | Wire.Hello { site; inc } when site >= 0 && site < cfg.n ->
          let newer =
            Float.is_nan hello_inc.(site) || inc > hello_inc.(site)
          in
          if newer then hello_inc.(site) <- inc;
          send_workload site
        | Wire.Strace { shard; entries; _ }
          when shard >= 0 && shard < cfg.shards ->
          push_batch shard entries
        | Wire.Metrics { site; reliable; _ } when site >= 0 && site < cfg.n ->
          live_stats.(site) <- reliable
        | Wire.Metrics_v2 { site; snapshot } when site >= 0 && site < cfg.n ->
          snapshots.(site) <- snapshot
        | Wire.Grant { session; req; deadline = _; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | Waiting { sent_at; _ } when req = c.req ->
            grants.(c.shard) <- grants.(c.shard) + 1;
            client_grants.(c.id) <- client_grants.(c.id) + 1;
            Summary.add latency.(c.shard) (now () -. sent_at);
            Dmx_obs.Metric.Histogram.observe_s acq_hist.(c.shard)
              (now () -. sent_at);
            if cfg.abandon > 0.0 && Rng.float rng 1.0 < cfg.abandon then
              (* simulate a client crash while holding: no release, no
                 renewal — the lease must clean up after us *)
              c.phase <- Draining
            else begin
              let release_at = now () +. cfg.hold in
              c.phase <- Holding { release_at };
              wake ~at:release_at c Release;
              if cfg.hold > cfg.lease /. 2.0 then
                wake ~at:(now () +. (cfg.lease /. 2.0)) c Renew
            end;
            if c.phase = Draining then
              wake ~at:(now () +. (2.0 *. cfg.lease) +. 1.0) c Failsafe
          | _ -> ()  (* renewal ack, duplicate, or stale grant *))
        | Wire.Expire { session; req; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | (Holding _ | Draining) when req = c.req ->
            expiries.(c.shard) <- expiries.(c.shard) + 1;
            complete_round c
          | _ -> ()  (* stale: the round already moved on *))
        | Wire.Deny { session; req; reason; _ }
          when session >= 0 && session < cfg.clients -> (
          let c = clients.(session) in
          match c.phase with
          | Waiting w when req = c.req ->
            if reason = "no-session" then begin
              (* the node lost (or never had) the session: re-introduce
                 it and retry on the spot *)
              c.opened <- false;
              w.last_try <- now ();
              send_acquire c
            end
          | _ -> ())
        | _ -> ()
      in
      let drain () =
        let rec go () =
          match transport.poll () with
          | Some (Transport_sig.Frame { frame; _ }) ->
            handle_frame frame;
            go ()
          | Some (Transport_sig.Peer_down _ | Transport_sig.Peer_up _) -> go ()
          | None -> ()
        in
        go ()
      in
      (* phase 1: hello, with startup-death detection *)
      let hello_deadline = Float.min cfg.hello_timeout cfg.timeout in
      let startup_death = ref None in
      let check_startup_deaths () =
        Array.iteri
          (fun site pid ->
            match pid with
            | Some pid when Float.is_nan hello_inc.(site) -> (
              match Unix.waitpid [ WNOHANG ] pid with
              | 0, _ -> ()
              | _, status ->
                pids.(site) <- None;
                let what =
                  match status with
                  | Unix.WEXITED c -> Printf.sprintf "exited with code %d" c
                  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %d" s
                  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %d" s
                in
                if !startup_death = None then
                  startup_death := Some (site, what)
              | exception _ -> ())
            | _ -> ())
          pids
      in
      while
        Array.exists Float.is_nan hello_inc
        && !startup_death = None
        && now () < hello_deadline
      do
        drain ();
        check_startup_deaths ();
        Unix.sleepf 0.005
      done;
      (match !startup_death with
      | Some (site, what) ->
        failwith
          (Printf.sprintf "node %d died before saying hello (%s)" site what)
      | None -> ());
      if Array.exists Float.is_nan hello_inc then begin
        let missing =
          Array.to_list
            (Array.mapi (fun s inc -> (s, Float.is_nan inc)) hello_inc)
          |> List.filter_map (fun (s, m) ->
                 if m then Some (string_of_int s) else None)
        in
        failwith
          (Printf.sprintf "timeout: node(s) %s never said hello within %.1fs"
             (String.concat "," missing) cfg.hello_timeout)
      end;
      (* phase 2: the swarm, with the kill/restart schedule *)
      let t0 = now () in
      since := Some t0;
      transport.broadcast (Wire.Workload { since = t0 });
      Array.iter (fun c -> wake ~at:(t0 +. think_delay ()) c Start) clients;
      let pending_kills = ref (List.sort compare cfg.kills) in
      let pending_restarts = ref (List.sort compare cfg.restarts) in
      let last_hb = ref Float.neg_infinity in
      let kill_node site =
        (match pids.(site) with
        | Some pid ->
          Spawn.kill_quietly pid;
          pids.(site) <- None
        | None -> ());
        alive.(site) <- false;
        hello_inc.(site) <- Float.nan;
        for shard = 0 to cfg.shards - 1 do
          push_batch shard
            [
              {
                Trace.time = now ();
                site = Shard_map.site_of_node ~shard ~n:cfg.n site;
                kind = Trace.Crash;
              };
            ]
        done;
        (* re-home every session bound to the dead node: queued acquires
           restart on a live node (the latency clock keeps running, so
           failover cost shows up in the percentiles); holds are void —
           the lease dies with the node's shard instance *)
        Array.iter
          (fun c ->
            if c.node = site && c.phase <> Done then begin
              incr rehomed;
              c.node <- next_live site;
              c.opened <- false;
              c.inc <- Unix.gettimeofday ();
              match c.phase with
              | Waiting w ->
                w.last_try <- now ();
                send_acquire c
              | Holding _ | Draining ->
                expiries.(c.shard) <- expiries.(c.shard) + 1;
                complete_round c
              | Thinking | Done -> ()
            end)
          clients
      in
      let restart_node site =
        if not alive.(site) then begin
          pids.(site) <- Some (spawn site);
          alive.(site) <- true;
          for shard = 0 to cfg.shards - 1 do
            push_batch shard
              [
                {
                  Trace.time = now ();
                  site = Shard_map.site_of_node ~shard ~n:cfg.n site;
                  kind = Trace.Recover;
                };
              ]
          done
        end
      in
      let handle_wakeup w =
        let c = clients.(w.client) in
        match (w.what, c.phase) with
        | Start, Thinking -> start_round c
        | Retry, Waiting wt ->
          if now () -. wt.last_try >= retry_interval -. 1e-6 then begin
            wt.last_try <- now ();
            send_acquire c
          end;
          wake ~at:(now () +. retry_interval) c Retry
        | Release, Holding { release_at } when now () >= release_at -. 1e-6 ->
          transport.send ~dst:c.node
            (Wire.Release_lock { session = c.id; lock = c.lock; req = c.req });
          complete_round c
        | Renew, Holding { release_at } ->
          if release_at > now () then begin
            transport.send ~dst:c.node
              (Wire.Renew { session = c.id; lock = c.lock; req = c.req });
            wake ~at:(now () +. (cfg.lease /. 2.0)) c Renew
          end
        | Failsafe, Draining ->
          (* the Expire frame was lost (or the node died without one):
             the hold is certainly gone by now *)
          expiries.(c.shard) <- expiries.(c.shard) + 1;
          complete_round c
        | _ -> ()
      in
      (* the run also plays out its kill/restart schedule, and waits for
         every restarted node to rejoin *)
      let settled () =
        !pending_kills = [] && !pending_restarts = []
        && Array.for_all2
             (fun live inc -> (not live) || not (Float.is_nan inc))
             alive hello_inc
      in
      while
        (!completed < cfg.clients || not (settled ())) && now () < cfg.timeout
      do
        drain ();
        if now () -. !last_hb >= 0.5 then begin
          last_hb := now ();
          (* keepalive: the daemons exit on driver silence *)
          Array.iteri
            (fun site live ->
              if live then
                transport.send ~dst:site
                  (Wire.Heartbeat { site = cfg.n; time = now () }))
            alive
        end;
        let rel = now () -. t0 in
        (match !pending_kills with
        | (t, site) :: rest when rel >= t ->
          pending_kills := rest;
          kill_node site
        | _ -> ());
        (match !pending_restarts with
        | (t, site) :: rest when rel >= t ->
          pending_restarts := rest;
          restart_node site
        | _ -> ());
        let rec fire () =
          match Dmx_sim.Heap.peek wakeups with
          | Some w when w.at <= now () ->
            ignore (Dmx_sim.Heap.pop wakeups);
            handle_wakeup w;
            fire ()
          | Some _ | None -> ()
        in
        fire ();
        Unix.sleepf 0.0005
      done;
      if !completed < cfg.clients then
        failwith
          (Printf.sprintf "timeout: %d/%d clients finished" !completed
             cfg.clients);
      if not (settled ()) then
        failwith "timeout: the kill/restart schedule did not play out";
      (* phase 3: shutdown, final Strace/Metrics drain, reap *)
      transport.broadcast Wire.Shutdown;
      let shutdowns_left = ref 2 in
      let next_shutdown = ref (Unix.gettimeofday () +. 0.2) in
      let grace = Unix.gettimeofday () +. 5.0 in
      let all_reaped () =
        Array.for_all
          (function
            | None -> true
            | Some pid -> (
              match Unix.waitpid [ WNOHANG ] pid with
              | 0, _ -> false
              | _ -> true
              | exception _ -> true))
          pids
      in
      let reaped = ref false in
      while (not !reaped) && Unix.gettimeofday () < grace do
        drain ();
        if !shutdowns_left > 0 && Unix.gettimeofday () >= !next_shutdown
        then begin
          decr shutdowns_left;
          next_shutdown := Unix.gettimeofday () +. 0.2;
          transport.broadcast Wire.Shutdown
        end;
        if all_reaped () then reaped := true else Unix.sleepf 0.01
      done;
      Array.iter (Option.iter Spawn.kill_quietly) pids;
      Array.fill pids 0 cfg.n None;
      Unix.sleepf 0.05;
      drain ();
      transport.close ();
      Ok
        {
          shard_acquires = acquires;
          shard_grants = grants;
          shard_expiries = expiries;
          shard_latency = latency;
          client_grants;
          shard_entries =
            Array.map (fun bs -> List.concat (List.rev bs)) shard_batches;
          crashy = cfg.kills <> [];
          lossy = not (Chaos.is_trivial plan);
          elapsed = Unix.gettimeofday () -. started_wall;
          clients_done = !completed;
          rehomed = !rehomed;
          node_stats = live_stats;
          node_snapshots = snapshots;
          driver_obs = Dmx_obs.Registry.snapshot obs;
        }
    with
    | Failure msg ->
      cleanup ();
      Error msg
    | e ->
      cleanup ();
      Error (Printexc.to_string e))

(* [books] is dropped once distilled, so a run keeps no trace entries *)
let run cfg =
  match supervise cfg with
  | Error e -> Error ("swarm: " ^ e)
  | Ok b ->
    Ok
      {
        per_shard =
          distil ~n:cfg.n ~crashy:b.crashy ~lossy:b.lossy
            ~acquires:b.shard_acquires ~grants:b.shard_grants
            ~expiries:b.shard_expiries ~latency:b.shard_latency
            ~entries:b.shard_entries;
        wall_seconds = b.elapsed;
        completed_clients = b.clients_done;
        rehomed_sessions = b.rehomed;
        live_stats = b.node_stats;
        snapshots = b.node_snapshots;
        driver_snapshot = b.driver_obs;
      }

(* ---- reporting ---- *)

let shard_ok s = Oracle.ok s.verdict && s.occupancy_violations = 0
let ok o = Array.for_all shard_ok o.per_shard

let live_totals o =
  match merged_snapshot o with
  | [] ->
    (* no node shipped a Metrics_v2 snapshot (old daemon, or all died
       before the final drain): fall back to the legacy alist fold *)
    Array.fold_left
      (fun acc site_stats ->
        List.fold_left
          (fun acc (k, v) ->
            (k, v + Option.value ~default:0 (List.assoc_opt k acc))
            :: List.remove_assoc k acc)
          acc site_stats)
      [] o.live_stats
    |> List.sort compare
  | merged -> Dmx_obs.Snapshot.to_alist merged

let pp_outcome ppf o =
  Format.fprintf ppf
    "shard  acquires  grants  expiries  p50(ms)  p95(ms)  p99(ms)  oracle@.";
  Array.iter
    (fun s ->
      let p q = 1000.0 *. Summary.percentile s.latency q in
      Format.fprintf ppf "%5d  %8d  %6d  %8d  %7.2f  %7.2f  %7.2f  %s@."
        s.shard s.acquires s.grants s.expiries (p 50.0) (p 95.0) (p 99.0)
        (if shard_ok s then "ok" else "VIOLATION"))
    o.per_shard;
  let total f = Array.fold_left (fun a s -> a + f s) 0 o.per_shard in
  Format.fprintf ppf
    "total: %d acquires, %d grants, %d expiries over %d shards; %d clients, \
     %d re-homed; wall %.2fs@."
    (total (fun s -> s.acquires))
    (total (fun s -> s.grants))
    (total (fun s -> s.expiries))
    (Array.length o.per_shard) o.completed_clients o.rehomed_sessions
    o.wall_seconds;
  (match live_totals o with
  | [] -> ()
  | totals ->
    Format.fprintf ppf "live counters:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) totals;
    Format.fprintf ppf "@.");
  Array.iter
    (fun s ->
      if not (shard_ok s) then
        Format.fprintf ppf "shard %d: occupancy=%d %a@." s.shard
          s.occupancy_violations Oracle.pp_verdict s.verdict)
    o.per_shard
