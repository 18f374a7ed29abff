(* The client-swarm driver: spawn n service daemons, run a closed-loop
   population of clients against the sharded lock namespace, optionally
   kill and restart daemons mid-run, and distil each shard's merged
   trace through the unmodified oracle.

   The driver is both supervisor and session gateway: every client
   session is multiplexed over the driver's single transport endpoint
   (peer id n), so 10k logical clients cost one connection per node,
   not 10k sockets. The client population is [Clients], its wakeups
   driven off one [Event_queue] on the wall clock; this module keeps the
   processes, the transport, the hello phase, heartbeats and reaping. *)

module Trace = Dmx_sim.Trace
module Oracle = Dmx_sim.Oracle
module Summary = Dmx_sim.Stats.Summary
module Rng = Dmx_sim.Rng
module Event_queue = Dmx_sim.Event_queue
module B = Dmx_quorum.Builder
module Wire = Dmx_net.Wire
module Transport_sig = Dmx_net.Transport_sig
module Transports = Dmx_net.Transports
module Net = Dmx_sim.Network
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
  detector : Dmx_sim.Detector.config;
  rto : float;
  transport : string;
  chaos : Net.fault_plan;
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
    detector = { Dmx_sim.Detector.period = 0.1; timeout = 1.0 };
    rto = 0.25;
    transport = "tcp";
    chaos = Net.no_faults;
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

(* ---- validation ---- *)

let check (cfg : config) =
  match
    Result.bind
      (Clients.check (workload cfg) ~kills:cfg.kills ~restarts:cfg.restarts)
      (fun () ->
        Host.protocol ~name:cfg.protocol ~quorum:cfg.quorum ~n:cfg.n
          ~rto:cfg.rto)
  with
  | Error e -> Error e
  | Ok _ ->
    if not (List.mem cfg.transport Transports.names) then
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
      match
        Dmx_sim.Detector.validate cfg.detector;
        Net.validate ~n:cfg.n cfg.chaos
      with
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

(* ---- the driver ---- *)

type books = {
  tally : Clients.tally;
  crashy : bool;
  lossy : bool;
  elapsed : float;
  node_stats : (string * int) list array;
  node_snapshots : Dmx_obs.Snapshot.t array;
}

(* Shared by the live driver and the virtual-time simulator. *)
let distil ~n b =
  let t = b.tally in
  {
    per_shard =
      Array.init (Array.length t.entries) (fun shard ->
          let es, verdict, occupancy_violations =
            judge ~n ~crashy:b.crashy ~lossy:b.lossy t.entries.(shard)
          in
          {
            shard;
            acquires = t.acquires.(shard);
            grants = t.grants.(shard);
            expiries = t.expiries.(shard);
            latency = t.latency.(shard);
            verdict;
            occupancy_violations;
            trace_entries = List.length es;
          });
    wall_seconds = b.elapsed;
    completed_clients = t.clients_done;
    rehomed_sessions = t.rehomed;
    live_stats = b.node_stats;
    snapshots = b.node_snapshots;
    driver_snapshot = t.obs;
  }

let supervise (cfg : config) =
  match check cfg with
  | Error _ as e -> e
  | Ok () -> (
    let started_wall = Unix.gettimeofday () in
    let epoch = started_wall in
    let ports =
      match cfg.ports with
      | Some ps -> ps
      | None -> Spawn.alloc_ports (cfg.n + 1)
    in
    let sup_port = List.nth ports cfg.n in
    let node_ports = Array.of_list (List.filteri (fun i _ -> i < cfg.n) ports) in
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
        detector = cfg.detector;
        rto = cfg.rto;
        max_seconds = cfg.timeout +. 30.0;
        transport = cfg.transport;
        chaos = cfg.chaos;
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
      let sites = List.init cfg.n Fun.id in
      let hello_inc = Array.make cfg.n Float.nan in
      let live_stats = Array.make cfg.n [] in
      let snapshots = Array.make cfg.n Dmx_obs.Snapshot.empty in
      let wakeups = Event_queue.create () in
      let clients =
        Clients.create
          ~caps:
            {
              Clients.now;
              send = (fun ~node frame -> transport.send ~dst:node frame);
              wake =
                (fun ~at ~client what ->
                  Event_queue.schedule wakeups
                    ~time:(Float.max at (Event_queue.now wakeups))
                    (client, what));
            }
          (workload cfg)
          ~retry_interval:(Float.max 0.25 (2.0 *. cfg.rto))
          ~inc:epoch ~rng:(Rng.create cfg.seed)
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
          Clients.push_trace clients ~shard entries
        | Wire.Metrics { site; reliable; _ } when site >= 0 && site < cfg.n ->
          live_stats.(site) <- reliable
        | Wire.Metrics_v2 { site; snapshot } when site >= 0 && site < cfg.n ->
          snapshots.(site) <- snapshot
        | frame -> Clients.on_frame clients frame
      in
      let drain () =
        let rec go () =
          match transport.poll () with
          | Some (_, frame) ->
            handle_frame frame;
            go ()
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
      Clients.start clients;
      let pending_kills = ref (List.sort compare cfg.kills) in
      let pending_restarts = ref (List.sort compare cfg.restarts) in
      let last_hb = ref Float.neg_infinity in
      let kill_node site =
        (match pids.(site) with
        | Some pid ->
          Spawn.kill_quietly pid;
          pids.(site) <- None
        | None -> ());
        hello_inc.(site) <- Float.nan;
        Clients.kill clients site
      in
      let restart_node site =
        if not (Clients.alive clients site) then begin
          pids.(site) <- Some (spawn site);
          Clients.restart clients site
        end
      in
      (* the run also plays out its kill/restart schedule, and waits for
         every restarted node to rejoin *)
      let settled () =
        !pending_kills = [] && !pending_restarts = []
        && List.for_all
             (fun s ->
               (not (Clients.alive clients s))
               || not (Float.is_nan hello_inc.(s)))
             sites
      in
      while
        (Clients.completed clients < cfg.clients || not (settled ()))
        && now () < cfg.timeout
      do
        drain ();
        if now () -. !last_hb >= 0.5 then begin
          last_hb := now ();
          (* keepalive: the daemons exit on driver silence *)
          List.iter
            (fun site ->
              if Clients.alive clients site then
                transport.send ~dst:site
                  (Wire.Heartbeat { site = cfg.n; time = now () }))
            sites
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
          match Event_queue.peek_time wakeups with
          | Some at when at <= now () ->
            Option.iter
              (fun { Event_queue.payload = client, what; _ } ->
                Clients.on_wake clients ~client what)
              (Event_queue.next wakeups);
            fire ()
          | Some _ | None -> ()
        in
        fire ();
        Unix.sleepf 0.0005
      done;
      if Clients.completed clients < cfg.clients then
        failwith
          (Printf.sprintf "timeout: %d/%d clients finished"
             (Clients.completed clients) cfg.clients);
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
          tally = Clients.tally clients;
          crashy = cfg.kills <> [];
          lossy = not (Net.is_trivial cfg.chaos);
          elapsed = Unix.gettimeofday () -. started_wall;
          node_stats = live_stats;
          node_snapshots = snapshots;
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
  | Ok b -> Ok (distil ~n:cfg.n b)

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
