type detector = Oracle of float | Heartbeat of Detector.config

type config = {
  n : int;
  seed : int;
  delay : Network.delay_model;
  cs_duration : float;
  workload : Workload.t;
  max_executions : int;
  max_time : float;
  warmup : int;
  crashes : (float * int) list;
  recoveries : (float * int) list;
  detector : detector;
  faults : Network.fault_plan;
  stall_timeout : float;
  trace : bool;
  lazy_sites : bool;
      (* instantiate a site's protocol state on first touch (its first
         arrival or delivery) instead of all n up front; requires the
         Oracle detector. Off by default: eager instantiation stays the
         reference behavior. *)
  obs : Dmx_obs.Registry.t option;
      (* metrics registry the run flushes its totals into (events, heap
         ops, executions, messages, per-kind counts). Flushed once at the
         end of the run — virtual time, so the registry contents are a
         pure function of the seed — never touched on the hot path. *)
}

let default ~n =
  {
    n;
    seed = 42;
    delay = Network.Constant 1.0;
    cs_duration = 0.5;
    workload = Workload.Saturated { contenders = n };
    max_executions = 200;
    max_time = 1.0e9;
    warmup = 20;
    crashes = [];
    recoveries = [];
    detector = Oracle 1.0;
    faults = Network.no_faults;
    stall_timeout = 2000.0;
    trace = false;
    lazy_sites = false;
    obs = None;
  }

type report = {
  protocol : string;
  params : string;
  n : int;
  executions : int;
  total_messages : int;
  messages_by_kind : (string * int) list;
  messages_per_cs : float;
  sync_delay : Stats.Summary.t;
  response_time : Stats.Summary.t;
  throughput : float;
  sim_time : float;
  mean_delay : float;
  violations : int;
  deadlocked : bool;
  pending_at_end : int;
  per_site_executions : int array;
  fairness : float;
  retransmissions : int;
  acks : int;
  detector_messages : int;
  suspicions : int;
  false_suspicions : int;
  unavailability : Stats.Summary.t;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s (%s): n=%d executions=%d@,\
     messages: total=%d per-cs=%.2f by-kind=[%s]@,\
     sync delay: %a@,\
     response time: %a@,\
     throughput=%.4f /T  fairness=%.3f  sim-time=%.1f  violations=%d%s pending=%d"
    r.protocol r.params r.n r.executions r.total_messages r.messages_per_cs
    (String.concat "; "
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.messages_by_kind))
    Stats.Summary.pp r.sync_delay Stats.Summary.pp r.response_time
    (r.throughput *. r.mean_delay)
    r.fairness r.sim_time r.violations
    (if r.deadlocked then " DEADLOCK" else "")
    r.pending_at_end;
  (* Fault/robustness line only when something happened, so fault-free runs
     print exactly as before. *)
  if
    r.retransmissions > 0 || r.acks > 0 || r.detector_messages > 0
    || r.suspicions > 0
    || Stats.Summary.count r.unavailability > 0
  then
    Format.fprintf ppf
      "@,faults: retx=%d acks=%d heartbeats=%d suspicions=%d (false=%d) \
       unavail-windows=%d unavail-time=%.1f"
      r.retransmissions r.acks r.detector_messages r.suspicions
      r.false_suspicions
      (Stats.Summary.count r.unavailability)
      (Stats.Summary.total r.unavailability);
  Format.fprintf ppf "@]"

module Make (P : Protocol.PROTOCOL) = struct
  type ev =
    | Deliver of {
        src : int;
        dst : int;
        msg : P.message;
        text : string;  (* the send's rendering, "" when untraced *)
        self_msg : bool;
      }
    | Timer of { site : int; tag : int }
    | Arrival of { site : int }
    | Cs_exit of { site : int }
    | Crash_ev of { site : int }
    | Recover_ev of { site : int }
    | Detect of { observer : int; failed : int }
    | Detect_recovery of { observer : int; recovered : int }
    (* Housekeeping events: failure-detector plumbing and engine timers.
       They never count toward quiescence detection. *)
    | Heartbeat_tick of { site : int }
    | Heartbeat_arrive of { src : int; dst : int }
    | Partition_edge of { heal : bool }
    | Watchdog

  let housekeeping = function
    | Heartbeat_tick _ | Heartbeat_arrive _ | Partition_edge _ | Watchdog ->
      true
    | Deliver _ | Timer _ | Arrival _ | Cs_exit _ | Crash_ev _ | Recover_ev _
    | Detect _ | Detect_recovery _ ->
      false

  type sim = {
    cfg : config;
    q : ev Event_queue.t;
    net : Network.t;
    trace : Trace.t;
    render : Trace.Render.t;  (* owned by this run, never shared *)
    counters : Stats.Counter.t;
    sync_delay : Stats.Summary.t;
    response_time : Stats.Summary.t;
    unavail : Stats.Summary.t;  (* durations of no-live-quorum park windows *)
    request_time : float array;  (* issue time of outstanding request, or nan *)
    parked_since : float array;  (* start of the site's park window, or nan *)
    backlog : int array;  (* application requests queued behind an active one *)
    site_execs : int array;  (* post-warmup CS completions per site *)
    detectors : Detector.t array;  (* empty in Oracle mode *)
    wl_rng : Rng.t;
    watchdog_armed : bool;
    mutable outstanding : int;  (* sites waiting for the CS *)
    mutable in_cs : int;  (* current CS holder, -1 if none *)
    mutable executions : int;  (* completed CS executions, including warmup *)
    mutable messages : int;  (* post-warmup network messages *)
    mutable detector_msgs : int;  (* heartbeats sent, whole run *)
    mutable suspicions : int;
    mutable false_suspicions : int;
    mutable live_events : int;  (* scheduled non-housekeeping events *)
    mutable last_progress : float;  (* time of last non-housekeeping event *)
    mutable forced_deadlock : bool;
    mutable last_exit : float;
    mutable waiting_at_exit : bool;
    mutable had_exit : bool;
    mutable violations : int;
    mutable warmup_time : float;
    mutable stop : bool;
  }

  let warmed sim = sim.executions >= sim.cfg.warmup

  let target sim = sim.cfg.warmup + sim.cfg.max_executions

  (* A traced message is rendered once, at send, and the text rides in its
     [Deliver] event for the receive entry and any duplicate copies. *)
  let render sim msg = Trace.Render.text sim.render P.pp_message msg

  (* Records a send and returns its text; "" (no rendering, no entry)
     when untraced, since send is the hottest path in the engine. *)
  let record_send sim ~site ~dst msg =
    if Trace.enabled sim.trace then begin
      let text = render sim msg in
      Trace.record sim.trace ~time:(Event_queue.now sim.q) ~site
        (Trace.Send { dst; msg = text });
      text
    end
    else ""

  let sched_live sim ~time ev =
    Event_queue.schedule sim.q ~time ev;
    sim.live_events <- sim.live_events + 1

  (* Builds one site's context; mutual recursion with event handling is
     broken by routing everything through the queue. Contexts are closures
     over [sim] only — building one has no side effects, so lazy-site mode
     can defer it to the site's first touch. *)
  let make_ctx sim site_rngs self =
    let now () = Event_queue.now sim.q in
          let send ~dst msg =
            if dst = self then begin
              let text = record_send sim ~site:self ~dst msg in
              sched_live sim ~time:(now ())
                (Deliver { src = self; dst = self; msg; text; self_msg = true })
            end
            else begin
              match Network.transmit sim.net ~src:self ~dst ~now:(now ()) with
              | Network.Lost `Down ->
                if Trace.enabled sim.trace then
                  Trace.record sim.trace ~time:(now ()) ~site:self
                    (Trace.Note
                       ("drop (crashed endpoint) -> " ^ Int.to_string dst ^ " : "
                      ^ render sim msg))
              | Network.Lost ((`Partitioned | `Faulty) as reason) ->
                (* The send happened and is charged; the network ate it. *)
                if warmed sim then begin
                  sim.messages <- sim.messages + 1;
                  Stats.Counter.incr sim.counters (P.message_kind msg)
                end;
                Trace.record sim.trace ~time:(now ()) ~site:self
                  (Trace.Drop
                     {
                       dst;
                       reason =
                         (match reason with
                         | `Partitioned -> "partition"
                         | `Faulty -> "loss");
                     })
              | (Network.Delivered | Network.Duplicated) as verdict ->
                if warmed sim then begin
                  sim.messages <- sim.messages + 1;
                  Stats.Counter.incr sim.counters (P.message_kind msg)
                end;
                let text = record_send sim ~site:self ~dst msg in
                let ev = Deliver { src = self; dst; msg; text; self_msg = false } in
                sched_live sim ~time:(Network.arrival sim.net 0) ev;
                match verdict with
                | Network.Duplicated ->
                  Trace.record sim.trace ~time:(now ()) ~site:self
                    (Trace.Duplicate { dst });
                  sched_live sim ~time:(Network.arrival sim.net 1) ev
                | Network.Delivered | Network.Lost _ -> ()
            end
          in
          let enter_cs () =
            let t = now () in
            if Float.is_nan sim.request_time.(self) then begin
              sim.violations <- sim.violations + 1;
              Trace.record sim.trace ~time:t ~site:self
                (Trace.Note "VIOLATION: CS entry without outstanding request")
            end
            else begin
              if sim.in_cs >= 0 then begin
                sim.violations <- sim.violations + 1;
                Trace.record sim.trace ~time:t ~site:self
                  (Trace.Note
                     (Printf.sprintf "VIOLATION: CS entry while site %d is in CS"
                        sim.in_cs))
              end;
              Trace.record sim.trace ~time:t ~site:self Trace.Enter_cs;
              if warmed sim then begin
                Stats.Summary.add sim.response_time (t -. sim.request_time.(self));
                if sim.had_exit && sim.waiting_at_exit then
                  Stats.Summary.add sim.sync_delay (t -. sim.last_exit)
              end;
              sim.request_time.(self) <- Float.nan;
              sim.outstanding <- sim.outstanding - 1;
              sim.in_cs <- self;
              sched_live sim
                ~time:(t +. sim.cfg.cs_duration)
                (Cs_exit { site = self })
            end
          in
          let set_timer ~delay ~tag =
            sched_live sim
              ~time:(now () +. delay)
              (Timer { site = self; tag })
          in
          let trace_note s =
            Trace.record sim.trace ~time:(now ()) ~site:self (Trace.Note s)
          in
          let trace_event k =
            Trace.record sim.trace ~time:(now ()) ~site:self k
          in
          let mark_parked parked =
            let t = now () in
            if parked then begin
              if Float.is_nan sim.parked_since.(self) then
                sim.parked_since.(self) <- t
            end
            else if not (Float.is_nan sim.parked_since.(self)) then begin
              Stats.Summary.add sim.unavail (t -. sim.parked_since.(self));
              sim.parked_since.(self) <- Float.nan
            end
          in
          {
            Protocol.self;
            n = sim.cfg.n;
            now;
            send;
            enter_cs;
            set_timer;
    rng = site_rngs.(self);
      trace_note;
      trace_event;
      mark_parked;
    }

  (* [ctx_of]/[state_of] below are accessors that instantiate on demand in
     lazy-site mode; in the default eager mode everything already exists. *)

  let issue_request sim ctx_of state_of site =
    sim.request_time.(site) <- Event_queue.now sim.q;
    sim.outstanding <- sim.outstanding + 1;
    Trace.record sim.trace ~time:(Event_queue.now sim.q) ~site Trace.Request;
    P.request_cs (ctx_of site) (state_of site)

  let handle_arrival sim ctx_of state_of site =
    (* Open-loop sources immediately schedule the site's next arrival. *)
    (match sim.cfg.workload with
    | Workload.Poisson _ | Workload.Open_loop _ ->
      (match
         Workload.next_arrival sim.cfg.workload ~site
           ~now:(Event_queue.now sim.q) ~rng:sim.wl_rng
       with
      | Some at when at <= sim.cfg.max_time ->
        sched_live sim ~time:at (Arrival { site })
      | Some _ | None -> ())
    | Workload.Saturated _ | Workload.Think _ | Workload.Burst _ -> ());
    if Network.is_up sim.net site then begin
      if Float.is_nan sim.request_time.(site) && sim.in_cs <> site then
        issue_request sim ctx_of state_of site
      else sim.backlog.(site) <- sim.backlog.(site) + 1
    end

  let handle_cs_exit sim ctx_of state_of site =
    if sim.in_cs = site then sim.in_cs <- -1;
    Trace.record sim.trace ~time:(Event_queue.now sim.q) ~site Trace.Exit_cs;
    sim.executions <- sim.executions + 1;
    if sim.executions > sim.cfg.warmup then
      sim.site_execs.(site) <- sim.site_execs.(site) + 1;
    if sim.executions = sim.cfg.warmup then begin
      sim.warmup_time <- Event_queue.now sim.q;
      sim.messages <- 0;
      (* per-kind counters restart with the measurement window *)
      List.iter
        (fun (k, v) -> Stats.Counter.incr ~by:(-v) sim.counters k)
        (Stats.Counter.bindings sim.counters)
    end;
    sim.had_exit <- true;
    sim.last_exit <- Event_queue.now sim.q;
    sim.waiting_at_exit <- sim.outstanding > 0;
    P.release_cs (ctx_of site) (state_of site);
    if sim.executions >= target sim then sim.stop <- true
    else begin
      (* Application layer: serve the local backlog, or re-request in the
         closed-loop (saturated) workload. *)
      if sim.backlog.(site) > 0 then begin
        sim.backlog.(site) <- sim.backlog.(site) - 1;
        issue_request sim ctx_of state_of site
      end
      else if Workload.is_closed_loop sim.cfg.workload then
        match
          Workload.next_arrival sim.cfg.workload ~site
            ~now:(Event_queue.now sim.q) ~rng:sim.wl_rng
        with
        | Some at -> sched_live sim ~time:at (Arrival { site })
        | None -> ()
    end

  let close_park_window sim site ~at =
    if not (Float.is_nan sim.parked_since.(site)) then begin
      Stats.Summary.add sim.unavail (at -. sim.parked_since.(site));
      sim.parked_since.(site) <- Float.nan
    end

  let handle_crash sim site =
    Network.crash sim.net site;
    Trace.record sim.trace ~time:(Event_queue.now sim.q) ~site Trace.Crash;
    (* In-flight messages to the dead site are lost; its timers and pending
       CS exit die with it. *)
    let dropped =
      Event_queue.drop_if sim.q (function
        | Deliver { dst; _ } -> dst = site
        | Timer { site = s; _ } -> s = site
        | Cs_exit { site = s } -> s = site
        | Arrival _ | Crash_ev _ | Recover_ev _ | Detect _ | Detect_recovery _
        | Heartbeat_tick _ | Heartbeat_arrive _ | Partition_edge _ | Watchdog
          ->
          false)
    in
    sim.live_events <- sim.live_events - dropped;
    if sim.in_cs = site then sim.in_cs <- -1;
    if not (Float.is_nan sim.request_time.(site)) then begin
      sim.request_time.(site) <- Float.nan;
      sim.outstanding <- sim.outstanding - 1
    end;
    close_park_window sim site ~at:(Event_queue.now sim.q);
    sim.backlog.(site) <- 0;
    match sim.cfg.detector with
    | Oracle d ->
      List.iter
        (fun observer ->
          if observer <> site then
            sched_live sim
              ~time:(Event_queue.now sim.q +. d)
              (Detect { observer; failed = site }))
        (Network.up_sites sim.net)
    | Heartbeat _ ->
      (* survivors find out when the site's heartbeats time out *)
      ()

  let run ?trace_sink ?inspect (cfg : config) pcfg =
    if cfg.n <= 0 then invalid_arg "Engine.run: n must be positive";
    if cfg.warmup < 0 || cfg.max_executions <= 0 then
      invalid_arg "Engine.run: bad execution counts";
    if not (cfg.stall_timeout > 0.0) then
      invalid_arg "Engine.run: stall_timeout must be positive";
    (match (cfg.lazy_sites, cfg.detector) with
    | true, Heartbeat _ ->
      (* every site heartbeats every other site — inherently O(N^2) and it
         would instantiate the whole universe anyway *)
      invalid_arg "Engine.run: lazy_sites requires the Oracle detector"
    | _ -> ());
    let master_rng = Rng.create cfg.seed in
    let net_rng = Rng.split master_rng in
    let site_rngs = Array.init cfg.n (fun _ -> Rng.split master_rng) in
    let wl_rng = Rng.split master_rng in
    (* Split last so fault-free components see the exact same streams as
       before faults existed. *)
    let fault_rng = Rng.split master_rng in
    let trace =
      match trace_sink with
      | Some t -> t
      | None -> Trace.create ~enabled:cfg.trace ()
    in
    let hb_cfg = match cfg.detector with Oracle _ -> None | Heartbeat c -> Some c in
    let sim =
      {
        cfg;
        q = Event_queue.create ();
        net =
          Network.create ~faults:cfg.faults ~fault_rng ~n:cfg.n ~delay:cfg.delay
            ~rng:net_rng ();
        trace;
        render = Trace.Render.create ();
        counters = Stats.Counter.create ();
        sync_delay = Stats.Summary.create ();
        response_time = Stats.Summary.create ();
        unavail = Stats.Summary.create ();
        request_time = Array.make cfg.n Float.nan;
        parked_since = Array.make cfg.n Float.nan;
        backlog = Array.make cfg.n 0;
        site_execs = Array.make cfg.n 0;
        detectors =
          (match hb_cfg with
          | None -> [||]
          | Some c ->
            Array.init cfg.n (fun self ->
                Detector.create c ~n:cfg.n ~self ~now:0.0));
        wl_rng;
        watchdog_armed =
          (match cfg.detector with Heartbeat _ -> true | Oracle _ -> false)
          || cfg.faults <> Network.no_faults;
        outstanding = 0;
        in_cs = -1;
        executions = 0;
        messages = 0;
        detector_msgs = 0;
        suspicions = 0;
        false_suspicions = 0;
        live_events = 0;
        last_progress = 0.0;
        forced_deadlock = false;
        last_exit = 0.0;
        waiting_at_exit = false;
        had_exit = false;
        violations = 0;
        warmup_time = 0.0;
        stop = false;
      }
    in
    let ctxs = Array.make cfg.n None in
    let states = Array.make cfg.n None in
    let ctx_of site =
      match ctxs.(site) with
      | Some c -> c
      | None ->
        let c = make_ctx sim site_rngs site in
        ctxs.(site) <- Some c;
        c
    in
    let state_of site =
      match states.(site) with
      | Some st -> st
      | None ->
        let st = P.init (ctx_of site) pcfg in
        states.(site) <- Some st;
        st
    in
    if not cfg.lazy_sites then begin
      (* Reference order: every context first, then every init (init may
         send messages; context creation never does). *)
      for site = 0 to cfg.n - 1 do
        ignore (ctx_of site)
      done;
      for site = 0 to cfg.n - 1 do
        ignore (state_of site)
      done
    end;
    List.iter
      (fun (time, site) ->
        sched_live sim ~time (Arrival { site }))
      (Workload.initial_arrivals cfg.workload ~n:cfg.n ~rng:sim.wl_rng);
    List.iter
      (fun (time, site) ->
        if site < 0 || site >= cfg.n then invalid_arg "Engine: crash site";
        sched_live sim ~time (Crash_ev { site }))
      cfg.crashes;
    List.iter
      (fun (time, site) ->
        if site < 0 || site >= cfg.n then invalid_arg "Engine: recovery site";
        sched_live sim ~time (Recover_ev { site }))
      cfg.recoveries;
    (match hb_cfg with
    | Some c ->
      (* Stagger first ticks so heartbeats don't fire in lockstep bursts. *)
      for site = 0 to cfg.n - 1 do
        Event_queue.schedule sim.q
          ~time:(c.Detector.period *. (1.0 +. (float_of_int site /. float_of_int cfg.n)))
          (Heartbeat_tick { site })
      done
    | None -> ());
    List.iter
      (fun (time, heal) ->
        if time <= cfg.max_time then
          Event_queue.schedule sim.q ~time (Partition_edge { heal }))
      (Network.partition_edges sim.net);
    if sim.watchdog_armed then
      Event_queue.schedule sim.q ~time:cfg.stall_timeout Watchdog;
    let deliver src dst msg text self_msg =
      if Network.is_up sim.net dst then begin
        if (not self_msg) && Trace.enabled sim.trace then
          Trace.record sim.trace
            ~time:(Event_queue.now sim.q)
            ~site:dst
            (Trace.Receive { src; msg = text });
        P.on_message (ctx_of dst) (state_of dst) ~src msg
      end
    in
    let handle_heartbeat_tick site time =
      if Network.is_up sim.net site then begin
        let c = Option.get hb_cfg in
        for dst = 0 to cfg.n - 1 do
          if dst <> site then begin
            sim.detector_msgs <- sim.detector_msgs + 1;
            match Network.transmit sim.net ~src:site ~dst ~now:time with
            | (Network.Delivered | Network.Duplicated) as verdict ->
              let ev = Heartbeat_arrive { src = site; dst } in
              Event_queue.schedule sim.q ~time:(Network.arrival sim.net 0) ev;
              (match verdict with
              | Network.Duplicated ->
                Event_queue.schedule sim.q ~time:(Network.arrival sim.net 1) ev
              | Network.Delivered | Network.Lost _ -> ())
            | Network.Lost _ -> ()
          end
        done;
        let newly = Detector.sweep sim.detectors.(site) ~now:time in
        List.iter
          (fun failed ->
            sim.suspicions <- sim.suspicions + 1;
            if Network.is_up sim.net failed then
              sim.false_suspicions <- sim.false_suspicions + 1;
            Trace.record sim.trace ~time ~site (Trace.Suspect failed);
            P.on_failure (ctx_of site) (state_of site) failed)
          newly;
        Event_queue.schedule sim.q
          ~time:(time +. c.Detector.period)
          (Heartbeat_tick { site })
      end
      (* a crashed site's tick chain dies; Recover_ev restarts it *)
    in
    let handle_heartbeat_arrive src dst time =
      if Network.is_up sim.net dst then begin
        let trust = Detector.heartbeat sim.detectors.(dst) ~src ~now:time in
        if trust then begin
          Trace.record sim.trace ~time ~site:dst (Trace.Trust src);
          P.on_recovery (ctx_of dst) (state_of dst) src
        end
      end
    in
    let handle_watchdog time =
      if
        sim.outstanding > 0
        && time -. sim.last_progress >= sim.cfg.stall_timeout
      then begin
        (* No substantive event for a full stall window while requests are
           outstanding: the run is wedged (e.g. permanent partition). *)
        sim.forced_deadlock <- true;
        sim.stop <- true
      end
      else if sim.live_events = 0 && sim.outstanding = 0 then
        (* Only housekeeping remains and nobody wants the CS: quiesce. *)
        sim.stop <- true
      else
        Event_queue.schedule sim.q
          ~time:(time +. sim.cfg.stall_timeout)
          Watchdog
    in
    let processed = ref 0 in
    let rec loop () =
      if
        (not sim.stop)
        && Event_queue.now sim.q <= cfg.max_time
        && not (Event_queue.is_empty sim.q)
      then
        let payload = Event_queue.pop sim.q in
        let time = Event_queue.now sim.q in
        if time > cfg.max_time then ()
        else begin
          incr processed;
          if not (housekeeping payload) then begin
            sim.live_events <- sim.live_events - 1;
            sim.last_progress <- time
          end;
          (match payload with
          | Deliver { src; dst; msg; text; self_msg } ->
            deliver src dst msg text self_msg
          | Timer { site; tag } ->
            if Network.is_up sim.net site then begin
              Trace.record sim.trace ~time ~site (Trace.Timer tag);
              P.on_timer (ctx_of site) (state_of site) tag
            end
          | Arrival { site } -> handle_arrival sim ctx_of state_of site
          | Cs_exit { site } -> handle_cs_exit sim ctx_of state_of site
          | Crash_ev { site } -> handle_crash sim site
          | Recover_ev { site } ->
            if not (Network.is_up sim.net site) then begin
              Network.recover sim.net site;
              Trace.record sim.trace ~time ~site Trace.Recover;
              (* fail-stop recovery: the site rejoins with FRESH protocol
                 state (its old volatile state died with it) *)
              states.(site) <- Some (P.init (ctx_of site) pcfg);
              (* Restart its workload source, which died with it. Under the
                 oracle the first arrival waits until every survivor has
                 processed the recovery notification — otherwise its
                 request lands on arbiters that still flag it dead and is
                 dropped. Heartbeat mode needs no guard: trust is earned
                 per observer, and the reliability layer's incarnation
                 numbers revalidate the site on first contact. *)
              let resume =
                match sim.cfg.detector with
                | Oracle d -> time +. (2.0 *. d)
                | Heartbeat _ -> time
              in
              (match
                 Workload.next_arrival sim.cfg.workload ~site ~now:resume
                   ~rng:sim.wl_rng
               with
              | Some at when at <= cfg.max_time ->
                sched_live sim
                  ~time:(Float.max at resume)
                  (Arrival { site })
              | Some _ | None -> ());
              match sim.cfg.detector with
              | Oracle d ->
                List.iter
                  (fun observer ->
                    if observer <> site then
                      sched_live sim
                        ~time:(Event_queue.now sim.q +. d)
                        (Detect_recovery { observer; recovered = site }))
                  (Network.up_sites sim.net)
              | Heartbeat c ->
                (* fresh detector state; tick chain restarts *)
                Detector.reset sim.detectors.(site) ~now:time;
                Event_queue.schedule sim.q
                  ~time:(time +. c.Detector.period)
                  (Heartbeat_tick { site })
            end
          | Detect { observer; failed } ->
            if Network.is_up sim.net observer then
              P.on_failure (ctx_of observer) (state_of observer) failed
          | Detect_recovery { observer; recovered } ->
            if Network.is_up sim.net observer then
              P.on_recovery (ctx_of observer) (state_of observer) recovered
          | Heartbeat_tick { site } -> handle_heartbeat_tick site time
          | Heartbeat_arrive { src; dst } -> handle_heartbeat_arrive src dst time
          | Partition_edge { heal } ->
            Trace.record sim.trace ~time ~site:(-1) (Trace.Partition { heal })
          | Watchdog -> handle_watchdog time);
          loop ()
        end
    in
    loop ();
    (match cfg.obs with
    | None -> ()
    | Some reg ->
      let module O = Dmx_obs in
      let c name v = O.Metric.Counter.add (O.Registry.counter reg name) v in
      c "engine.events" !processed;
      c "engine.heap.push" (Event_queue.pushes sim.q);
      c "engine.heap.pop" (Event_queue.pops sim.q);
      O.Metric.Gauge.set (O.Registry.gauge reg "engine.heap.peak")
        (max (Event_queue.peak sim.q)
           (O.Metric.Gauge.get (O.Registry.gauge reg "engine.heap.peak")));
      c "engine.executions" (max 0 (sim.executions - cfg.warmup));
      c "engine.messages" sim.messages;
      List.iter
        (fun (k, v) ->
          if v > 0 then
            O.Metric.Counter.add
              (O.Registry.counter reg "engine.messages.kind"
                 ~labels:[ ("kind", k) ])
              v)
        (Stats.Counter.bindings sim.counters));
    (match inspect with
    | Some f ->
      Array.iteri
        (fun site st -> match st with Some st -> f site st | None -> ())
        states
    | None -> ());
    let sim_time = Event_queue.now sim.q in
    for site = 0 to cfg.n - 1 do
      close_park_window sim site ~at:sim_time
    done;
    let deadlocked =
      sim.forced_deadlock
      || (Event_queue.is_empty sim.q && sim.outstanding > 0 && not sim.stop)
    in
    let executions = max 0 (sim.executions - cfg.warmup) in
    let window = sim_time -. sim.warmup_time in
    (* Jain's fairness index over sites that completed at least one CS:
       (sum x)^2 / (n * sum x^2); 1.0 = perfectly even service. *)
    let fairness =
      let xs =
        Array.to_list sim.site_execs
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
    {
      protocol = P.name;
      params = P.describe pcfg;
      n = cfg.n;
      executions;
      total_messages = sim.messages;
      messages_by_kind =
        List.filter (fun (_, v) -> v > 0) (Stats.Counter.bindings sim.counters);
      messages_per_cs =
        (if executions = 0 then 0.0
         else float_of_int sim.messages /. float_of_int executions);
      sync_delay = sim.sync_delay;
      response_time = sim.response_time;
      throughput =
        (if window > 0.0 then float_of_int executions /. window else 0.0);
      sim_time;
      mean_delay = Network.mean_delay cfg.delay;
      violations = sim.violations;
      deadlocked;
      pending_at_end = sim.outstanding;
      per_site_executions = Array.copy sim.site_execs;
      fairness;
      retransmissions = Stats.Counter.get sim.counters "retx";
      acks = Stats.Counter.get sim.counters "ack";
      detector_messages = sim.detector_msgs;
      suspicions = sim.suspicions;
      false_suspicions = sim.false_suspicions;
      unavailability = sim.unavail;
    }
end
