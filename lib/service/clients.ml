(* The closed-loop client population behind both swarm drivers. Every
   effect goes through [caps], so the live driver runs it on the wall
   clock and the twin on virtual time. *)

module Trace = Dmx_sim.Trace
module Summary = Dmx_sim.Stats.Summary
module Rng = Dmx_sim.Rng
module Wire = Dmx_net.Wire

type what = Start | Retry | Release | Renew | Failsafe

type caps = {
  now : unit -> float;
  send : node:int -> Wire.frame -> unit;
  wake : at:float -> client:int -> what -> unit;
}

type workload = {
  n : int;
  shards : int;
  clients : int;
  locks : int;
  rounds : int;
  think : float;
  hold : float;
  lease : float;
  abandon : float;
}

let check (w : workload) ~kills ~restarts =
  if w.n < 2 then Error "need at least 2 nodes"
  else if w.shards < 1 then Error "shards must be >= 1"
  else if w.clients < 1 then Error "clients must be >= 1"
  else if w.rounds < 1 then Error "rounds must be >= 1"
  else if w.think < 0.0 || w.hold < 0.0 then
    Error "think/hold must be non-negative"
  else if w.lease <= 0.0 then Error "lease must be positive"
  else if w.abandon < 0.0 || w.abandon > 1.0 then
    Error "abandon must be a probability"
  else if List.exists (fun (_, s) -> s < 0 || s >= w.n) (kills @ restarts)
  then Error "kill/restart node out of range"
  else if
    List.exists
      (fun (rt, s) ->
        not (List.exists (fun (kt, ks) -> ks = s && kt < rt) kills))
      restarts
  then Error "every restart needs an earlier kill of the same node"
  else if List.length kills >= w.n then Error "cannot kill every node"
  else Ok ()

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

type t = {
  caps : caps;
  w : workload;
  retry_interval : float;
  rng : Rng.t;
  clients : client array;
  alive : bool array;
  (* newest batch first; concatenated in arrival order by [tally], so
     entries that share a timestamp keep their within-batch order
     through the final stable time-sort *)
  batches : Trace.entry list list array;
  acquires : int array;
  grants : int array;
  expiries : int array;
  latency : Summary.t array;
  client_grants : int array;
  mutable rehomed : int;
  mutable completed : int;
  obs : Dmx_obs.Registry.t;
  acq_hist : Dmx_obs.Metric.Histogram.t array;
}

(* virtual wakeups fire at exactly their time; wall-clock ones no
   earlier *)
let eps = 1e-9

let create ~caps (w : workload) ~retry_interval ~inc ~rng =
  let locks = if w.locks < 1 then w.clients else w.locks in
  let clients =
    Array.init w.clients (fun id ->
        let lock = Printf.sprintf "lock-%d" (id mod locks) in
        {
          id;
          lock;
          shard = Shard_map.shard_of_lock ~shards:w.shards lock;
          node = id mod w.n;
          inc;
          opened = false;
          phase = Thinking;
          round = 0;
          req = 0;
        })
  in
  (* the driver's registry: acquire-to-grant histograms observed where
     [Summary.add] runs, so failover cost lands in both readouts, plus
     probes over the round counters *)
  let obs = Dmx_obs.Registry.create () in
  let acq_hist =
    Array.init w.shards (fun shard ->
        Dmx_obs.Registry.histogram obs
          ~labels:[ ("shard", string_of_int shard) ]
          "swarm.acquire_latency")
  in
  let t =
    {
      caps;
      w;
      retry_interval;
      rng;
      clients;
      alive = Array.make w.n true;
      batches = Array.make w.shards [];
      acquires = Array.make w.shards 0;
      grants = Array.make w.shards 0;
      expiries = Array.make w.shards 0;
      latency = Array.init w.shards (fun _ -> Summary.create ());
      client_grants = Array.make w.clients 0;
      rehomed = 0;
      completed = 0;
      obs;
      acq_hist;
    }
  in
  for shard = 0 to w.shards - 1 do
    let labels = [ ("shard", string_of_int shard) ] in
    Dmx_obs.Registry.probe obs ~labels "swarm.acquires" (fun () ->
        t.acquires.(shard));
    Dmx_obs.Registry.probe obs ~labels "swarm.grants" (fun () ->
        t.grants.(shard));
    Dmx_obs.Registry.probe obs ~labels "swarm.expiries" (fun () ->
        t.expiries.(shard))
  done;
  Dmx_obs.Registry.probe obs "swarm.rehomed_sessions" (fun () -> t.rehomed);
  Dmx_obs.Registry.probe obs "swarm.completed_clients" (fun () ->
      t.completed);
  t

let alive t node = t.alive.(node)
let completed t = t.completed

let push_trace t ~shard es =
  if es <> [] then t.batches.(shard) <- es :: t.batches.(shard)

let think_delay t =
  if t.w.think <= 0.0 then 0.0 else Rng.exponential t.rng ~mean:t.w.think

let wake t ~at c what = t.caps.wake ~at ~client:c.id what
let send t c frame = t.caps.send ~node:c.node frame

let send_acquire t c =
  if not c.opened then begin
    send t c (Wire.Open_session { session = c.id; inc = c.inc });
    c.opened <- true
  end;
  send t c (Wire.Acquire { session = c.id; lock = c.lock; req = c.req })

let complete_round t c =
  c.round <- c.round + 1;
  if c.round >= t.w.rounds then begin
    c.phase <- Done;
    t.completed <- t.completed + 1
  end
  else begin
    c.phase <- Thinking;
    wake t ~at:(t.caps.now () +. think_delay t) c Start
  end

let expire t c =
  t.expiries.(c.shard) <- t.expiries.(c.shard) + 1;
  complete_round t c

let start t =
  Array.iter (fun c -> wake t ~at:(t.caps.now () +. think_delay t) c Start)
    t.clients

let start_round t c =
  c.req <- c.round + 1;
  t.acquires.(c.shard) <- t.acquires.(c.shard) + 1;
  let now = t.caps.now () in
  c.phase <- Waiting { sent_at = now; last_try = now };
  send_acquire t c;
  wake t ~at:(now +. t.retry_interval) c Retry

let granted t c ~sent_at =
  let now = t.caps.now () in
  t.grants.(c.shard) <- t.grants.(c.shard) + 1;
  t.client_grants.(c.id) <- t.client_grants.(c.id) + 1;
  Summary.add t.latency.(c.shard) (now -. sent_at);
  Dmx_obs.Metric.Histogram.observe_s t.acq_hist.(c.shard) (now -. sent_at);
  if t.w.abandon > 0.0 && Rng.float t.rng 1.0 < t.w.abandon then begin
    (* a client crash while holding: no release, no renewal — the lease
       must clean up after us *)
    c.phase <- Draining;
    wake t ~at:(now +. (2.0 *. t.w.lease) +. 1.0) c Failsafe
  end
  else begin
    let release_at = now +. t.w.hold in
    c.phase <- Holding { release_at };
    wake t ~at:release_at c Release;
    if t.w.hold > t.w.lease /. 2.0 then
      wake t ~at:(now +. (t.w.lease /. 2.0)) c Renew
  end

let on_frame t frame =
  let client session =
    if session >= 0 && session < t.w.clients then Some t.clients.(session)
    else None
  in
  match frame with
  | Wire.Grant { session; req; _ } -> (
    match client session with
    | Some ({ phase = Waiting { sent_at; _ }; _ } as c) when req = c.req ->
      granted t c ~sent_at
    | _ -> ()  (* renewal ack, duplicate, or stale grant *))
  | Wire.Expire { session; req; _ } -> (
    match client session with
    | Some ({ phase = Holding _ | Draining; _ } as c) when req = c.req ->
      expire t c
    | _ -> ()  (* stale: the round already moved on *))
  | Wire.Deny { session; req; reason = "no-session"; _ } -> (
    match client session with
    | Some ({ phase = Waiting w; _ } as c) when req = c.req ->
      (* the node lost (or never had) the session: re-introduce it and
         retry on the spot *)
      c.opened <- false;
      w.last_try <- t.caps.now ();
      send_acquire t c
    | _ -> ())
  | _ -> ()

let on_wake t ~client what =
  let c = t.clients.(client) in
  let now = t.caps.now () in
  match (what, c.phase) with
  | Start, Thinking -> start_round t c
  | Retry, Waiting w ->
    if now -. w.last_try >= t.retry_interval -. eps then begin
      w.last_try <- now;
      send_acquire t c
    end;
    wake t ~at:(now +. t.retry_interval) c Retry
  | Release, Holding { release_at } when now >= release_at -. eps ->
    (* the guard drops a stale wake: a kill voided the hold this wake
       was for, and the client has since been granted again *)
    send t c (Wire.Release_lock { session = c.id; lock = c.lock; req = c.req });
    complete_round t c
  | Renew, Holding { release_at } ->
    if release_at > now then begin
      send t c (Wire.Renew { session = c.id; lock = c.lock; req = c.req });
      wake t ~at:(now +. (t.w.lease /. 2.0)) c Renew
    end
  | Failsafe, Draining ->
    (* the Expire frame was lost (or the node died without one): the
       hold is certainly gone by now *)
    expire t c
  | _ -> ()

let mark t site kind =
  let time = t.caps.now () in
  for shard = 0 to t.w.shards - 1 do
    push_trace t ~shard
      [
        { Trace.time; site = Shard_map.site_of_node ~shard ~n:t.w.n site; kind };
      ]
  done

let next_live t node =
  let n = t.w.n in
  let rec go k step =
    if step > n then node
    else if t.alive.(k) then k
    else go ((k + 1) mod n) (step + 1)
  in
  go ((node + 1) mod n) 0

let kill t site =
  if t.alive.(site) then begin
    t.alive.(site) <- false;
    mark t site Trace.Crash;
    Array.iter
      (fun c ->
        if c.node = site && c.phase <> Done then begin
          t.rehomed <- t.rehomed + 1;
          c.node <- next_live t site;
          c.opened <- false;
          c.inc <- c.inc +. 1.0;
          match c.phase with
          | Waiting w ->
            w.last_try <- t.caps.now ();
            send_acquire t c
          | Holding _ | Draining -> expire t c
          | Thinking | Done -> ()
        end)
      t.clients
  end

let restart t site =
  if not t.alive.(site) then begin
    t.alive.(site) <- true;
    mark t site Trace.Recover
  end

type tally = {
  acquires : int array;
  grants : int array;
  expiries : int array;
  latency : Summary.t array;
  client_grants : int array;
  entries : Trace.entry list array;
  clients_done : int;
  rehomed : int;
  obs : Dmx_obs.Snapshot.t;
}

let tally (t : t) =
  {
    acquires = t.acquires;
    grants = t.grants;
    expiries = t.expiries;
    latency = t.latency;
    client_grants = t.client_grants;
    entries = Array.map (fun bs -> List.concat (List.rev bs)) t.batches;
    clients_done = t.completed;
    rehomed = t.rehomed;
    obs = Dmx_obs.Registry.snapshot t.obs;
  }
