(* The paper's system model run live: n sites, each one protocol
   instance, each completing [rounds] CS entries. It is a one-shard lock
   service — one lock, client i homed on node i, no think time, a hold
   of [cs_duration] and one grant per protocol CS — so the Swarm driver
   and the Snode daemons do all the work, and shard 0's merged trace
   (whose rotation is the identity, so site ids are node ids) yields the
   report, the oracle verdict and the occupancy scan. *)

module E = Dmx_sim.Engine
module Trace = Dmx_sim.Trace
module Oracle = Dmx_sim.Oracle
module Summary = Dmx_sim.Stats.Summary
module B = Dmx_quorum.Builder
module Net = Dmx_sim.Network

type config = {
  n : int;
  protocol : string;
  quorum : B.kind;
  rounds : int;
  cs_duration : float;
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
  ports : int list option;
  metrics_base_port : int;
}

let default ~n =
  {
    n;
    protocol = "ft-delay-optimal";
    quorum = B.Tree;
    rounds = 20;
    cs_duration = 0.001;
    seed = 42;
    kills = [];
    restarts = [];
    log_dir = None;
    timeout = 180.0;
    detector = { Dmx_sim.Detector.period = 0.1; timeout = 1.0 };
    rto = 0.25;
    transport = "tcp";
    chaos = Net.no_faults;
    hello_timeout = 10.0;
    ports = None;
    metrics_base_port = 0;
  }

type outcome = {
  report : E.report;
  verdict : Oracle.verdict;
  entries : Trace.entry list;
  wall_seconds : float;
  snapshots : Dmx_obs.Snapshot.t array;
}

let merged_snapshot o = Dmx_obs.Snapshot.merge_all (Array.to_list o.snapshots)

let swarm_config (cfg : config) =
  {
    (Swarm.default ~n:cfg.n) with
    Swarm.shards = 1;
    clients = cfg.n;
    locks = 1;
    rounds = cfg.rounds;
    think = 0.0;
    hold = cfg.cs_duration;
    max_batch = 1;
    protocol = cfg.protocol;
    quorum = cfg.quorum;
    seed = cfg.seed;
    kills = cfg.kills;
    restarts = cfg.restarts;
    log_dir = cfg.log_dir;
    timeout = cfg.timeout;
    detector = cfg.detector;
    rto = cfg.rto;
    transport = cfg.transport;
    chaos = cfg.chaos;
    hello_timeout = cfg.hello_timeout;
    ports = cfg.ports;
    metrics_base_port = cfg.metrics_base_port;
  }

(* ---- report reconstruction ---- *)

(* Executions are the driver's grants: one per protocol CS at one grant
   per tenure, and they survive a killed node's unflushed trace. Every
   other figure is read off the merged trace, except the per-kind message
   counts, which are the daemons' own. *)
let build_report (cfg : config) ~entries ~client_grants ~kinds ~elapsed =
  let enters = Array.make cfg.n 0 in
  let request_at = Array.make cfg.n Float.nan in
  let response = Summary.create () in
  let sync = Summary.create () in
  let unavail = Summary.create () in
  let parked_at = Array.make cfg.n Float.nan in
  let total_messages = ref 0 in
  let suspicions = ref 0 in
  let false_suspicions = ref 0 in
  (* dead windows, from the driver's own Crash/Recover entries *)
  let dead_since = Array.make cfg.n Float.nan in
  let waiting = Array.make cfg.n false in
  let open_handoff = ref Float.nan in
  let first_event = ref Float.nan in
  let last_event = ref Float.nan in
  List.iter
    (fun (e : Trace.entry) ->
      let t = e.Trace.time in
      if Float.is_nan !first_event then first_event := t;
      last_event := t;
      let site = e.Trace.site in
      match e.Trace.kind with
      | Trace.Request ->
        request_at.(site) <- t;
        waiting.(site) <- true
      | Trace.Enter_cs ->
        enters.(site) <- enters.(site) + 1;
        waiting.(site) <- false;
        if not (Float.is_nan request_at.(site)) then begin
          Summary.add response (t -. request_at.(site));
          request_at.(site) <- Float.nan
        end;
        if not (Float.is_nan !open_handoff) then begin
          Summary.add sync (t -. !open_handoff);
          open_handoff := Float.nan
        end
      | Trace.Exit_cs ->
        if Array.exists Fun.id waiting then open_handoff := t
      | Trace.Send { dst; _ } -> if dst <> site then incr total_messages
      | Trace.Suspect s ->
        incr suspicions;
        if Float.is_nan dead_since.(s) then incr false_suspicions
      | Trace.Crash ->
        dead_since.(site) <- t;
        waiting.(site) <- false;
        request_at.(site) <- Float.nan
      | Trace.Recover -> dead_since.(site) <- Float.nan
      | Trace.Note note ->
        if note = "parked" then parked_at.(site) <- t
        else if note = "unparked" && not (Float.is_nan parked_at.(site))
        then begin
          Summary.add unavail (t -. parked_at.(site));
          parked_at.(site) <- Float.nan
        end
      | _ -> ())
    entries;
  let executions = Array.fold_left ( + ) 0 client_grants in
  let fairness =
    let xs =
      Array.to_list enters
      |> List.filter (fun x -> x > 0)
      |> List.map float_of_int
    in
    match xs with
    | [] -> 1.0
    | xs ->
      let sum = List.fold_left ( +. ) 0.0 xs in
      let sq = List.fold_left (fun a x -> a +. (x *. x)) 0.0 xs in
      sum *. sum /. (float_of_int (List.length xs) *. sq)
  in
  let assoc_get k l = Option.value ~default:0 (List.assoc_opt k l) in
  let window =
    if Float.is_nan !first_event then elapsed else !last_event -. !first_event
  in
  {
    E.protocol = cfg.protocol;
    params = Format.asprintf "%a quorums, live cluster" B.pp_kind cfg.quorum;
    n = cfg.n;
    executions;
    total_messages = !total_messages;
    messages_by_kind = kinds;
    messages_per_cs =
      (if executions = 0 then 0.0
       else float_of_int !total_messages /. float_of_int executions);
    sync_delay = sync;
    response_time = response;
    throughput =
      (if window > 0.0 then float_of_int executions /. window else 0.0);
    sim_time = elapsed;
    mean_delay = 1.0;
    violations = 0 (* the caller's occupancy scan *);
    deadlocked = false;
    pending_at_end =
      Array.to_list waiting |> List.filter Fun.id |> List.length;
    per_site_executions = Array.copy client_grants;
    fairness;
    retransmissions = assoc_get "retx" kinds;
    acks = assoc_get "ack" kinds;
    detector_messages = 0;
    suspicions = !suspicions;
    false_suspicions = !false_suspicions;
    unavailability = unavail;
  }

(* the fleet's per-kind send counts, from the daemons' labelled
   service.messages.kind{kind=...} series *)
let kinds_of (snap : Dmx_obs.Snapshot.t) =
  List.filter_map
    (fun (s : Dmx_obs.Snapshot.series) ->
      match (s.name, s.labels) with
      | "service.messages.kind", [ ("kind", k) ] -> (
        match s.value with
        | Dmx_obs.Snapshot.Counter v when v > 0 -> Some (k, v)
        | _ -> None)
      | _ -> None)
    snap

(* ---- the run ---- *)

let run (cfg : config) =
  match Swarm.supervise (swarm_config cfg) with
  | Error e -> Error ("cluster: " ^ e)
  | Ok b ->
    let entries, verdict, violations =
      Swarm.judge ~n:cfg.n ~crashy:b.Swarm.crashy ~lossy:b.Swarm.lossy
        b.Swarm.tally.Clients.entries.(0)
    in
    let snapshots = b.Swarm.node_snapshots in
    let kinds =
      kinds_of (Dmx_obs.Snapshot.merge_all (Array.to_list snapshots))
    in
    let report =
      build_report cfg ~entries
        ~client_grants:b.Swarm.tally.Clients.client_grants ~kinds
        ~elapsed:b.Swarm.elapsed
    in
    Ok
      {
        report = { report with E.violations };
        verdict;
        entries;
        wall_seconds = b.Swarm.elapsed;
        snapshots;
      }

let live_totals o = Dmx_obs.Snapshot.to_alist (merged_snapshot o)

let pp_outcome ppf o =
  Format.fprintf ppf "%a@.occupancy: violations=%d entries=%d wall=%.2fs"
    E.pp_report o.report o.report.E.violations (List.length o.entries)
    o.wall_seconds;
  (match live_totals o with
  | [] -> ()
  | totals ->
    Format.fprintf ppf "@.live counters:";
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%d" k v) totals);
  Format.fprintf ppf "@.%a" Oracle.pp_verdict o.verdict
