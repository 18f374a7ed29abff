(* The sharded lock service: Shard_map properties, the Host and the
   client population driven through fake capabilities, the
   deterministic Sim_swarm (including replayability, pinned goldens and
   kill/restart recovery), a short live swarm under a
   chaos partition window, and — gated behind DMX_CLUSTER_FULL=1 like the
   heavy cluster scenarios — a live multi-process swarm with a mid-run
   kill and restart. *)

module SM = Dmx_service.Shard_map
module Swarm = Dmx_service.Swarm
module Sim_swarm = Dmx_service.Sim_swarm
module Wire = Dmx_net.Wire
module B = Dmx_quorum.Builder

let full_enabled = Sys.getenv_opt "DMX_CLUSTER_FULL" = Some "1"

(* ---- shard map ---- *)

let test_shard_map_ranges () =
  for i = 0 to 999 do
    let lock = Printf.sprintf "lock-%d" i in
    let s = SM.shard_of_lock ~shards:16 lock in
    Alcotest.(check bool) "in range" true (s >= 0 && s < 16);
    Alcotest.(check int) "stable" s (SM.shard_of_lock ~shards:16 lock)
  done;
  (* the rotation is a bijection both ways for every shard *)
  let n = 7 in
  for shard = 0 to 4 do
    for site = 0 to n - 1 do
      let node = SM.node_of_site ~shard ~n site in
      Alcotest.(check int) "round-trip" site (SM.site_of_node ~shard ~n node)
    done
  done;
  (* rotation spreads site 0 (the tree root / grid hot spot) over nodes *)
  let roots = List.init 5 (fun shard -> SM.node_of_site ~shard ~n 0) in
  Alcotest.(check (list int)) "root rotates" [ 0; 1; 2; 3; 4 ] roots

let test_shard_map_spread () =
  (* FNV over a realistic namespace should not collapse onto few shards:
     with 4096 keys over 16 shards, every shard gets a decent share *)
  let counts = Array.make 16 0 in
  for i = 0 to 4095 do
    let s = SM.shard_of_lock ~shards:16 (Printf.sprintf "user/%d/profile" i) in
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun s c ->
      if c < 128 then
        Alcotest.failf "shard %d got only %d of 4096 keys (expected ~256)" s c)
    counts

(* ---- host, through fake capabilities ---- *)

module Host = Dmx_service.Host.Make (Dmx_core.Delay_optimal)

type fake = {
  mutable vnow : float;
  mutable client_out : Wire.frame list;  (* newest first *)
  mutable shard_out : (int * Wire.frame) list;  (* (dst node, frame) *)
  mutable timers : (float * int * int) list;  (* (at, shard, tag) *)
}

let make_host ?(n = 3) ?(shards = 2) ?(lease = 1.0) ?(max_batch = 8) ~self ()
    =
  let f = { vnow = 0.0; client_out = []; shard_out = []; timers = [] } in
  let caps =
    {
      Dmx_service.Host.now = (fun () -> f.vnow);
      send =
        (fun ~dst fr ->
          if dst = n then f.client_out <- fr :: f.client_out
          else f.shard_out <- (dst, fr) :: f.shard_out);
      set_timer =
        (fun ~shard ~tag ~delay ->
          f.timers <- (f.vnow +. delay, shard, tag) :: f.timers);
    }
  in
  let host =
    Host.create ~caps
      ~codec:{ Host.encode = Wire.encode_message; decode = Wire.decode_message }
      ~self ~n ~shards
      ~lease:{ Dmx_core.Lease.duration = lease; max_batch }
      ~seed:1
      ~pconfig:(fun ~shard:_ ->
        Dmx_core.Delay_optimal.config (B.req_sets B.Star ~n))
  in
  (host, f)

(* Star quorum with rotation: shard s's arbiter (site 0) lives on node
   s. A host on node [self] can serve shard [self] entirely locally —
   which lets these tests reach a Grant without a network. *)
let local_lock host ~shard =
  let rec go i =
    if i > 10_000 then Alcotest.fail "no lock name hashed onto the shard"
    else
      let lock = Printf.sprintf "k%d" i in
      if SM.shard_of_lock ~shards:(Host.shard_count host) lock = shard then
        lock
      else go (i + 1)
  in
  go 0

(* self-arbitration needs the self-send queue drained a few times:
   request -> arbiter -> reply -> enter_cs *)
let drain_grant host =
  for _ = 1 to 4 do
    Host.tick host
  done

let test_host_grant_flow () =
  let self = 1 in
  let host, f = make_host ~self () in
  let lock = local_lock host ~shard:self in
  Host.open_session host ~session:7 ~inc:1.0;
  Host.acquire host ~session:7 ~lock ~req:1;
  drain_grant host;
  (match f.client_out with
  | [ Wire.Grant { session = 7; lock = l; req = 1; deadline } ] ->
    Alcotest.(check string) "lock echoed" lock l;
    Alcotest.(check (float 1e-9)) "deadline = now + lease" 1.0 deadline
  | other ->
    Alcotest.failf "expected exactly one Grant, got %d frame(s)"
      (List.length other));
  f.client_out <- [];
  (* release lets the next session in *)
  Host.open_session host ~session:8 ~inc:1.0;
  Host.acquire host ~session:8 ~lock ~req:1;
  Host.release host ~session:7 ~lock ~req:1;
  drain_grant host;
  (match f.client_out with
  | [ Wire.Grant { session = 8; _ } ] -> ()
  | _ -> Alcotest.fail "release should hand the lock to session 8");
  let stats = Host.lease_stats host in
  Alcotest.(check (option int))
    "two grants counted" (Some 2)
    (List.assoc_opt "lease.grants" stats)

let test_host_denies_unknown_session () =
  let host, f = make_host ~self:0 () in
  Host.acquire host ~session:9 ~lock:"x" ~req:1;
  (match f.client_out with
  | [ Wire.Deny { session = 9; reason = "no-session"; _ } ] -> ()
  | _ -> Alcotest.fail "expected Deny no-session");
  Alcotest.(check (option int))
    "deny counted" (Some 1)
    (List.assoc_opt "service.denies" (Host.lease_stats host))

let test_host_expiry_and_incarnation () =
  let self = 1 in
  let host, f = make_host ~self ~lease:1.0 () in
  let lock = local_lock host ~shard:self in
  Host.open_session host ~session:7 ~inc:1.0;
  Host.acquire host ~session:7 ~lock ~req:1;
  drain_grant host;
  f.client_out <- [];
  (* the lease timer fires past the deadline: the hold expires *)
  f.vnow <- 1.5;
  let due, rest =
    List.partition (fun (_, _, tag) -> tag = Dmx_core.Lease.timer_tag) f.timers
  in
  f.timers <- rest;
  Alcotest.(check int) "one lease timer armed" 1 (List.length due);
  List.iter (fun (_, shard, tag) -> Host.on_timer host ~shard ~tag) due;
  (match f.client_out with
  | [ Wire.Expire { session = 7; req = 1; _ } ] -> ()
  | _ -> Alcotest.fail "expected Expire for the silent holder");
  f.client_out <- [];
  (* a re-open with a larger incarnation voids what the old life held *)
  Host.acquire host ~session:7 ~lock ~req:2;
  drain_grant host;
  f.client_out <- [];
  Host.open_session host ~session:7 ~inc:2.0;
  Alcotest.(check (option int))
    "stale hold voided" (Some 1)
    (List.assoc_opt "lease.voided" (Host.lease_stats host))

(* every frame a node receives goes through on_frame: the session
   frames reach the lease machine, protocol sends leave as Sproto from
   this node, and frames that are the driver's business are ignored *)
let test_host_on_frame () =
  let self = 0 in
  let host, f = make_host ~self ~shards:3 () in
  List.iter (Host.on_frame host)
    [
      Wire.Hello { site = 1; inc = 1.0 };
      Wire.Heartbeat { site = 1; time = 0.5 };
      Wire.Workload { since = 0.0 };
      Wire.Shutdown;
      Wire.Grant { session = 7; lock = "x"; req = 1; deadline = 1.0 };
      Wire.Strace { shard = 0; site = 1; entries = [] };
      Wire.Metrics_v2 { site = 1; snapshot = Dmx_obs.Snapshot.empty };
    ];
  drain_grant host;
  Alcotest.(check int) "no client frame" 0 (List.length f.client_out);
  Alcotest.(check int) "no shard frame" 0 (List.length f.shard_out);
  Alcotest.(check int) "no timer" 0 (List.length f.timers);
  Alcotest.(check int) "no trace" 0 (List.length (Host.drain_traces host));
  let lock = local_lock host ~shard:self in
  Host.on_frame host (Wire.Open_session { session = 7; inc = 1.0 });
  Host.on_frame host (Wire.Acquire { session = 7; lock; req = 1 });
  drain_grant host;
  (match f.client_out with
  | [ Wire.Grant { session = 7; lock = l; req = 1; _ } ] ->
    Alcotest.(check string) "lock echoed" lock l
  | other ->
    Alcotest.failf "expected exactly one Grant, got %d frame(s)"
      (List.length other));
  (* shard 2's arbiter, site 0, lives on node 2 under the rotation *)
  let remote = 2 in
  Host.on_frame host
    (Wire.Acquire
       { session = 7; lock = local_lock host ~shard:remote; req = 2 });
  drain_grant host;
  match f.shard_out with
  | [ (dst, Wire.Sproto { shard; src; dst = dst'; payload }) ] ->
    Alcotest.(check int) "shard" remote shard;
    Alcotest.(check int) "src is this node" self src;
    Alcotest.(check int) "rotated destination" remote dst;
    Alcotest.(check int) "frame names its destination" dst dst';
    (match Wire.decode_message payload with
    | Ok (Dmx_core.Messages.Request _) -> ()
    | _ -> Alcotest.fail "expected an encoded Request")
  | other ->
    Alcotest.failf "expected exactly one Sproto, got %d frame(s)"
      (List.length other)

(* an Sproto naming a sender or shard outside the system is dropped: the
   rotation must not raise inside a live daemon's loop *)
let test_host_drops_hostile_sproto () =
  let host, f = make_host ~n:3 ~self:0 () in
  let payload =
    Wire.encode_message
      (Dmx_core.Messages.Request { Dmx_sim.Timestamp.sn = 1; site = 1 })
  in
  List.iter
    (fun (shard, src) ->
      Host.on_frame host (Wire.Sproto { shard; src; dst = 0; payload }))
    [ (0, 3); (0, -1); (0, 99); (2, 1); (-1, 1) ];
  drain_grant host;
  Alcotest.(check int) "nothing received" 0 (Host.received host);
  Alcotest.(check int) "no client frame" 0 (List.length f.client_out);
  Alcotest.(check int) "no shard frame" 0 (List.length f.shard_out);
  Alcotest.(check int) "no trace" 0 (List.length (Host.drain_traces host))

(* ---- client population, through fake capabilities ---- *)

module Clients = Dmx_service.Clients

type fake_driver = {
  mutable dnow : float;
  mutable out : (int * Wire.frame) list;  (* (node, frame), newest first *)
  mutable wakes : (float * int * Clients.what) list;
}

(* three nodes, one shard, think 0 (no RNG draws), a hold well under
   half the lease (no renewals), no abandons *)
let make_clients ~clients =
  let d = { dnow = 0.0; out = []; wakes = [] } in
  let caps =
    {
      Clients.now = (fun () -> d.dnow);
      send = (fun ~node frame -> d.out <- (node, frame) :: d.out);
      wake = (fun ~at ~client what -> d.wakes <- (at, client, what) :: d.wakes);
    }
  in
  let w =
    {
      Clients.n = 3;
      shards = 1;
      clients;
      locks = 0;
      rounds = 3;
      think = 0.0;
      hold = 1.0;
      lease = 10.0;
      abandon = 0.0;
    }
  in
  let t =
    Clients.create ~caps w ~retry_interval:5.0 ~inc:1.0
      ~rng:(Dmx_sim.Rng.create 1)
  in
  (t, d)

(* fire every pending Start wake *)
let start_all t d =
  Clients.start t;
  let due = d.wakes in
  d.wakes <- [];
  List.iter
    (fun (_, client, what) ->
      if what = Clients.Start then Clients.on_wake t ~client what)
    due

let grant ~session ~req =
  Wire.Grant
    { session; lock = Printf.sprintf "lock-%d" session; req; deadline = 0.0 }

let take_out d =
  let out = List.rev d.out in
  d.out <- [];
  out

let test_clients_stale_release () =
  let t, d = make_clients ~clients:1 in
  start_all t d;
  ignore (take_out d);
  Clients.on_frame t (grant ~session:0 ~req:1);
  (* the hold ends at 1.0; the node dies first and voids it *)
  d.dnow <- 0.2;
  Clients.kill t 0;
  Alcotest.(check (list int)) "no frame for a voided hold" []
    (List.map fst (take_out d));
  (* round 2 starts at once (think 0) and is granted by the new home
     before the old release time *)
  let start = List.filter (fun (_, _, w) -> w = Clients.Start) d.wakes in
  Alcotest.(check int) "next round scheduled" 1 (List.length start);
  Clients.on_wake t ~client:0 Clients.Start;
  ignore (take_out d);
  d.dnow <- 0.3;
  Clients.on_frame t (grant ~session:0 ~req:2);
  (* the first hold's Release wake is stale: it must not end the
     second hold early *)
  d.dnow <- 1.0;
  Clients.on_wake t ~client:0 Clients.Release;
  Alcotest.(check int) "stale Release sends nothing" 0
    (List.length (take_out d));
  d.dnow <- 1.3;
  Clients.on_wake t ~client:0 Clients.Release;
  (match take_out d with
  | [ (1, Wire.Release_lock { session = 0; req = 2; _ }) ] -> ()
  | _ -> Alcotest.fail "the live hold's Release should go to the new home");
  let tally = Clients.tally t in
  Alcotest.(check int) "two grants" 2 tally.Clients.grants.(0);
  Alcotest.(check int) "the voided hold counts as an expiry" 1
    tally.Clients.expiries.(0)

let test_clients_deny_reopens () =
  let t, d = make_clients ~clients:1 in
  start_all t d;
  (match take_out d with
  | [ (0, Wire.Open_session { session = 0; inc = 1.0 });
      (0, Wire.Acquire { session = 0; req = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "a round opens the session, then acquires");
  let deny ~req reason =
    Wire.Deny { session = 0; lock = "lock-0"; req; reason }
  in
  Clients.on_frame t (deny ~req:1 "no-quorum");
  Clients.on_frame t (deny ~req:7 "no-session");
  Alcotest.(check int) "other reasons and stale requests are ignored" 0
    (List.length (take_out d));
  d.dnow <- 0.5;
  Clients.on_frame t (deny ~req:1 "no-session");
  (match take_out d with
  | [ (0, Wire.Open_session { session = 0; _ });
      (0, Wire.Acquire { session = 0; req = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "Deny no-session should re-open and retry");
  (* the retry on the spot restarts the retry clock *)
  d.dnow <- 5.0;
  Clients.on_wake t ~client:0 Clients.Retry;
  Alcotest.(check int) "retry clock restarted" 0 (List.length (take_out d));
  d.dnow <- 5.5;
  Clients.on_wake t ~client:0 Clients.Retry;
  match take_out d with
  | [ (0, Wire.Acquire { session = 0; req = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "a due retry re-sends the Acquire"

let test_clients_rehome () =
  let t, d = make_clients ~clients:3 in
  start_all t d;
  ignore (take_out d);
  let opens () =
    List.filter_map
      (function
        | node, Wire.Open_session { session; inc } -> Some (session, node, inc)
        | _ -> None)
      (take_out d)
  in
  d.dnow <- 0.1;
  Clients.kill t 1;
  Alcotest.(check (list (triple int int (float 0.0))))
    "client 1 moves to node 2 with a larger incarnation" [ (1, 2, 2.0) ]
    (opens ());
  Alcotest.(check bool) "node 1 is down" false (Clients.alive t 1);
  d.dnow <- 0.2;
  Clients.kill t 2;
  Alcotest.(check (list (triple int int (float 0.0))))
    "node 1 is skipped: both go to node 0" [ (1, 0, 3.0); (2, 0, 2.0) ]
    (opens ());
  Clients.kill t 2;
  Alcotest.(check int) "a second kill of a dead node is a no-op" 0
    (List.length (take_out d));
  d.dnow <- 0.3;
  Clients.restart t 1;
  let tally = Clients.tally t in
  Alcotest.(check int) "three re-homes" 3 tally.Clients.rehomed;
  Alcotest.(check (list (pair (float 0.0) int)))
    "Crash and Recover entries in shard 0's trace"
    [ (0.1, 1); (0.2, 2); (0.3, 1) ]
    (List.map
       (fun (e : Dmx_sim.Trace.entry) -> (e.Dmx_sim.Trace.time, e.site))
       tally.Clients.entries.(0))

(* ---- deterministic swarm ---- *)

let fingerprint (o : Swarm.outcome) =
  Format.asprintf "%a" Swarm.pp_outcome o

let test_sim_swarm_clean () =
  let cfg =
    {
      (Sim_swarm.default ~n:5) with
      Sim_swarm.clients = 40;
      shards = 4;
      rounds = 2;
      abandon = 0.25;
      lease = 0.4;
      seed = 23;
    }
  in
  match Sim_swarm.run_named cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "all shards clean" true (Swarm.ok o);
    Alcotest.(check int) "all clients finished" 40 o.Swarm.completed_clients;
    let total_expiries =
      Array.fold_left (fun a s -> a + s.Swarm.expiries) 0 o.Swarm.per_shard
    in
    Alcotest.(check bool)
      "abandons were cleaned up by expiry" true (total_expiries > 0)

let deterministic_cfg =
  {
    (Sim_swarm.default ~n:4) with
    Sim_swarm.clients = 24;
    shards = 3;
    rounds = 2;
    abandon = 0.2;
    lease = 0.3;
    quorum = B.Majority;
    seed = 77;
  }

let test_sim_swarm_deterministic () =
  let cfg = deterministic_cfg in
  match (Sim_swarm.run_named cfg, Sim_swarm.run_named cfg) with
  | Ok a, Ok b ->
    Alcotest.(check string)
      "same seed, same everything" (fingerprint a) (fingerprint b);
    (match Sim_swarm.run_named { cfg with Sim_swarm.seed = 78 } with
    | Ok c ->
      Alcotest.(check bool)
        "different seed, different run" true
        (fingerprint a <> fingerprint c)
    | Error e -> Alcotest.fail e)
  | Error e, _ | _, Error e -> Alcotest.fail e

(* kill one node mid-run without restart: its leases expire, its
   sessions re-home, every shard still finishes clean *)
let kill_recovery_cfg =
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.clients = 30;
    shards = 4;
    rounds = 3;
    think = 0.2;
    lease = 0.5;
    kills = [ (0.3, 2) ];
    seed = 41;
  }

let test_sim_swarm_kill_recovery () =
  match Sim_swarm.run_named kill_recovery_cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check bool) "clean under a kill" true (Swarm.ok o);
    Alcotest.(check int) "all clients finished" 30 o.Swarm.completed_clients;
    Alcotest.(check bool)
      "sessions were re-homed" true
      (o.Swarm.rehomed_sessions > 0)

(* a kill and a restart of the same node, with abandons, so held, queued
   and draining sessions all get re-homed *)
let kill_restart_cfg =
  {
    (Sim_swarm.default ~n:5) with
    Sim_swarm.clients = 40;
    shards = 4;
    rounds = 3;
    think = 0.1;
    hold = 0.01;
    lease = 0.4;
    abandon = 0.1;
    kills = [ (0.25, 1) ];
    restarts = [ (0.8, 1) ];
    seed = 13;
  }

(* Pinned digests of [fingerprint] (the whole printed outcome: per-shard
   counts, percentiles, verdicts, virtual wall time, live counters). A
   refactor of the twin's event loop or client machines must leave the
   run byte-identical; a deliberate behaviour change re-pins these and
   says why. *)
let twin_goldens =
  [
    ("deterministic seed 77", deterministic_cfg,
      "04f9778add449eef3d157dd46855d850");
    ("kill recovery seed 41", kill_recovery_cfg,
      "eb6f52c7e2d0fa86f21ca09afc91e707");
    ("kill + restart seed 13", kill_restart_cfg,
      "46c5dead7901befd7860aff8a05fad8e");
  ]

let test_sim_swarm_goldens () =
  List.iter
    (fun (label, cfg, want) ->
      match Sim_swarm.run_named cfg with
      | Error e -> Alcotest.failf "%s: %s" label e
      | Ok o ->
        Alcotest.(check string)
          label want
          (Digest.to_hex (Digest.string (fingerprint o))))
    twin_goldens

let test_swarm_validation () =
  let bad cfg what =
    match Swarm.validate cfg with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "expected %s to be rejected" what
  in
  let d = Swarm.default ~n:5 in
  bad { d with Swarm.n = 1 } "n=1";
  bad { d with Swarm.abandon = 1.5 } "abandon > 1";
  bad { d with Swarm.kills = [ (1.0, 9) ] } "kill out of range";
  bad
    { d with Swarm.restarts = [ (1.0, 2) ] }
    "restart without an earlier kill";
  bad
    {
      d with
      Swarm.kills = [ (0.1, 0); (0.1, 1); (0.1, 2); (0.1, 3); (0.1, 4) ];
    }
    "killing every node";
  bad { d with Swarm.protocol = "nope" } "unknown protocol";
  bad { d with Swarm.rto = 0.0 } "zero rto";
  bad { d with Swarm.rto = Float.nan } "NaN rto";
  bad
    { d with Swarm.detector = { Dmx_sim.Detector.period = 0.0; timeout = 1.0 } }
    "zero heartbeat period";
  bad
    { d with Swarm.detector = { Dmx_sim.Detector.period = 1.5; timeout = 1.0 } }
    "heartbeat timeout below the period";
  (match Swarm.validate d with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default should validate: %s" e);
  let sim_bad cfg what =
    match Sim_swarm.validate cfg with
    | Error e ->
      Alcotest.(check bool)
        (what ^ ": prefixed") true
        (String.starts_with ~prefix:"sim-swarm: " e)
    | Ok () -> Alcotest.failf "expected %s to be rejected" what
  in
  let sd = Sim_swarm.default ~n:5 in
  sim_bad { sd with Sim_swarm.latency = 0.0 } "zero latency";
  sim_bad { sd with Sim_swarm.rto = 0.0 } "zero rto";
  sim_bad { sd with Sim_swarm.rto = Float.nan } "NaN rto";
  sim_bad
    { sd with Sim_swarm.restarts = [ (1.0, 2) ] }
    "restart without an earlier kill";
  sim_bad
    { sd with Sim_swarm.kills = [ (2.0, 2) ]; restarts = [ (1.0, 2) ] }
    "restart before the kill"

(* ---- live swarm (gated, like the heavy cluster scenarios) ---- *)

let test_live_swarm_kill_restart () =
  if not full_enabled then Alcotest.skip ()
  else
    let cfg =
      {
        (Swarm.default ~n:5) with
        Swarm.clients = 60;
        shards = 4;
        rounds = 3;
        think = 0.3;
        lease = 1.0;
        kills = [ (1.0, 1) ];
        restarts = [ (3.0, 1) ];
        timeout = 90.0;
        seed = 5;
      }
    in
    match Swarm.run cfg with
    | Error e -> Alcotest.fail e
    | Ok o ->
      if not (Swarm.ok o) then
        Alcotest.failf "live swarm not clean:@.%a" Swarm.pp_outcome o;
      Alcotest.(check int)
        "all clients finished" 60 o.Swarm.completed_clients;
      Alcotest.(check bool)
        "kill re-homed sessions" true
        (o.Swarm.rehomed_sessions > 0)

(* the driver sends the workload epoch, so a partition window in the
   chaos plan really opens: node 0's frames to the others are dropped
   while it lasts, heartbeats included *)
let test_live_swarm_partition_window () =
  let cfg =
    {
      (Swarm.default ~n:3) with
      Swarm.clients = 6;
      shards = 2;
      rounds = 3;
      think = 0.05;
      quorum = B.Majority;
      chaos =
        {
          Dmx_sim.Network.no_faults with
          Dmx_sim.Network.partitions =
            [ { Dmx_sim.Network.from_t = 0.0; until = 0.4; groups = [ [ 0 ] ] } ];
        };
      timeout = 60.0;
    }
  in
  match Swarm.run cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    if not (Swarm.ok o) then
      Alcotest.failf "partitioned swarm not clean:@.%a" Swarm.pp_outcome o;
    let dropped =
      Dmx_obs.Snapshot.get (Swarm.merged_snapshot o) "chaos.partition_dropped"
    in
    Alcotest.(check bool)
      (Printf.sprintf "partition dropped frames (%d)" dropped)
      true (dropped > 0)

let suite =
  [
    Alcotest.test_case "shard map ranges and rotation" `Quick
      test_shard_map_ranges;
    Alcotest.test_case "shard map spread" `Quick test_shard_map_spread;
    Alcotest.test_case "host grant flow" `Quick test_host_grant_flow;
    Alcotest.test_case "host denies unknown session" `Quick
      test_host_denies_unknown_session;
    Alcotest.test_case "host expiry + incarnation voiding" `Quick
      test_host_expiry_and_incarnation;
    Alcotest.test_case "host on_frame dispatch" `Quick test_host_on_frame;
    Alcotest.test_case "host drops a hostile Sproto" `Quick
      test_host_drops_hostile_sproto;
    Alcotest.test_case "clients ignore a stale release wake" `Quick
      test_clients_stale_release;
    Alcotest.test_case "clients re-open on deny no-session" `Quick
      test_clients_deny_reopens;
    Alcotest.test_case "clients re-home on a kill" `Quick test_clients_rehome;
    Alcotest.test_case "sim swarm clean with abandons" `Quick
      test_sim_swarm_clean;
    Alcotest.test_case "sim swarm deterministic" `Quick
      test_sim_swarm_deterministic;
    Alcotest.test_case "sim swarm kill recovery" `Quick
      test_sim_swarm_kill_recovery;
    Alcotest.test_case "sim swarm goldens" `Quick test_sim_swarm_goldens;
    Alcotest.test_case "config validation" `Quick test_swarm_validation;
    Alcotest.test_case "live swarm partition window opens" `Slow
      test_live_swarm_partition_window;
    Alcotest.test_case "live swarm kill+restart (DMX_CLUSTER_FULL)" `Slow
      test_live_swarm_kill_restart;
  ]
