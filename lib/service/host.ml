(* Per-node service logic, shared verbatim by the live daemon (Snode)
   and the deterministic simulator (Sim_swarm).

   One host owns this node's slice of every shard: a protocol instance
   (one per shard, over rotated site ids — see Shard_map) plus the
   Lease machine that adapts client sessions to the protocol's single
   CS. The host never touches a socket or a clock directly; frames come
   in through [on_frame] and everything else flows through the [caps]
   record, so the same code runs on the wall clock over UDP and on
   virtual time inside a test. *)

module Proto = Dmx_sim.Protocol
module Trace = Dmx_sim.Trace
module Lease = Dmx_core.Lease
module Wire = Dmx_net.Wire
module B = Dmx_quorum.Builder

type caps = {
  now : unit -> float;
  send : dst:int -> Wire.frame -> unit;
  set_timer : shard:int -> tag:int -> delay:float -> unit;
}

type protocol =
  | Protocol : {
      proto :
        (module Proto.PROTOCOL
           with type message = Dmx_core.Messages.t
            and type state = 's
            and type config = 'c);
      pconfig : shard:int -> 'c;
      live_stats : 's -> (string * int) list;
      attach_obs :
        's -> labels:(string * string) list -> Dmx_obs.Registry.t -> unit;
    }
      -> protocol

let protocol ~name ~quorum ~n ~rto =
  if not (B.supports quorum ~n) then
    Error (Format.asprintf "quorum %a does not support n=%d" B.pp_kind quorum n)
  else
    match name with
    | "delay-optimal" ->
      Ok
        (Protocol
           {
             proto = (module Dmx_core.Delay_optimal);
             pconfig =
               (fun ~shard:_ ->
                 Dmx_core.Delay_optimal.config (B.req_sets quorum ~n));
             live_stats = (fun _ -> []);
             attach_obs = (fun _ ~labels:_ _ -> ());
           })
    | "ft-delay-optimal" -> (
      let module Ft = Dmx_core.Ft_delay_optimal in
      let module R = Dmx_core.Reliable in
      let reliability =
        { R.rto; backoff = 2.0; rto_max = 16.0 *. rto; ack_delay = 0.1 *. rto }
      in
      match R.validate reliability with
      | exception Invalid_argument e -> Error e
      | () ->
        Ok
          (Protocol
             {
               proto = (module Ft);
               pconfig =
                 (fun ~shard:_ ->
                   Ft.config_of_kind ~reliability ~trust_detector:false quorum
                     ~n ~broadcast:false);
               live_stats =
                 (fun st ->
                   match Ft.Internal.reliable st with
                   | Some r -> R.stats_alist r
                   | None -> []);
               attach_obs =
                 (fun st ~labels reg ->
                   Option.iter
                     (fun r -> R.attach ~labels r reg)
                     (Ft.Internal.reliable st));
             }))
    | p ->
      Error
        (Printf.sprintf
           "unknown protocol %S (want delay-optimal or ft-delay-optimal)" p)

module Make (P : Proto.PROTOCOL) = struct
  type codec = {
    encode : P.message -> string;
    decode : string -> (P.message, string) result;
  }

  type shard_state = {
    index : int;
    my_site : int;  (* this node's site id inside the shard's rotation *)
    pctx : P.message Proto.ctx;
    pstate : P.state;
    lease : Lease.t;
    selfq : P.message Queue.t;
    pending_enter : bool ref;  (* shared with the ctx's enter_cs closure *)
    traces : Trace.entry Queue.t;
  }

  type t = {
    caps : caps;
    codec : codec;
    self : int;
    n : int;
    mutable shards : shard_state array;
    sessions : (int, float) Hashtbl.t;  (* session -> incarnation *)
    locks : (int * int, string) Hashtbl.t;  (* (session, req) -> lock *)
    kinds : (string, int) Hashtbl.t;
    mutable sent : int;
    mutable received : int;
    mutable denies : int;
    mutable obs : Dmx_obs.Registry.t option;  (* set by [attach_obs] *)
    render : Trace.Render.t;  (* per host: hosts may run on several domains *)
  }

  let count_kind t k =
    Hashtbl.replace t.kinds k
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.kinds k));
    match t.obs with
    | None -> ()
    | Some reg ->
      Dmx_obs.Metric.Counter.incr
        (Dmx_obs.Registry.counter reg "service.messages.kind"
           ~labels:[ ("kind", k) ])

  let render t msg = Trace.Render.text t.render P.pp_message msg

  (* Traces are per shard, in the shard's own site-id space: each shard's
     merged log must look to the oracle like a self-contained n-site
     system. *)
  let trace t sh kind =
    Queue.push
      { Trace.time = t.caps.now (); site = sh.my_site; kind }
      sh.traces

  let create ~caps ~codec ~self ~n ~shards ~lease ~seed ~pconfig =
    if shards < 1 then invalid_arg "Host: shards must be >= 1";
    if self < 0 || self >= n then invalid_arg "Host: self out of range";
    let t =
      {
        caps;
        codec;
        self;
        n;
        shards = [||];
        sessions = Hashtbl.create 64;
        locks = Hashtbl.create 64;
        kinds = Hashtbl.create 8;
        sent = 0;
        received = 0;
        denies = 0;
        obs = None;
        render = Trace.Render.create ();
      }
    in
    let make_shard index =
      let my_site = Shard_map.site_of_node ~shard:index ~n self in
      let selfq = Queue.create () in
      let traces = Queue.create () in
      let pending_enter = ref false in
      let push_trace kind =
        Queue.push { Trace.time = caps.now (); site = my_site; kind } traces
      in
      let pctx : P.message Proto.ctx =
        {
          Proto.self = my_site;
          n;
          now = caps.now;
          send =
            (fun ~dst msg ->
              push_trace (Trace.Send { dst; msg = render t msg });
              if dst = my_site then Queue.push msg selfq
              else begin
                t.sent <- t.sent + 1;
                count_kind t (P.message_kind msg);
                let dst = Shard_map.node_of_site ~shard:index ~n dst in
                let payload = codec.encode msg in
                caps.send ~dst
                  (Wire.Sproto { shard = index; src = self; dst; payload })
              end);
          enter_cs = (fun () -> pending_enter := true);
          set_timer =
            (fun ~delay ~tag -> caps.set_timer ~shard:index ~tag ~delay);
          rng = Dmx_sim.Rng.create (seed + (index * 7919) + self + 1);
          trace_note = (fun s -> push_trace (Trace.Note s));
          trace_event = push_trace;
          mark_parked =
            (fun p ->
              push_trace (Trace.Note (if p then "parked" else "unparked")));
        }
      in
      let pstate = P.init pctx (pconfig ~shard:index) in
      let lease_io =
        {
          Lease.now = caps.now;
          set_timer =
            (fun ~delay ->
              caps.set_timer ~shard:index ~tag:Lease.timer_tag ~delay);
        }
      in
      {
        index;
        my_site;
        pctx;
        pstate;
        lease = Lease.create lease ~io:lease_io;
        selfq;
        pending_enter;
        traces;
      }
    in
    t.shards <- Array.init shards make_shard;
    t

  let lock_of t ~session ~req =
    Option.value ~default:"?" (Hashtbl.find_opt t.locks (session, req))

  let rec perform t sh (actions : Lease.action list) =
    List.iter
      (function
        | Lease.Grant { session; req; deadline } ->
          let lock = lock_of t ~session ~req in
          t.caps.send ~dst:t.n (Wire.Grant { session; lock; req; deadline })
        | Lease.Expire { session; req } ->
          let lock = lock_of t ~session ~req in
          Hashtbl.remove t.locks (session, req);
          t.caps.send ~dst:t.n (Wire.Expire { session; lock; req })
        | Lease.Request_cs ->
          trace t sh Trace.Request;
          P.request_cs sh.pctx sh.pstate
        | Lease.Release_cs ->
          trace t sh Trace.Exit_cs;
          P.release_cs sh.pctx sh.pstate)
      actions;
    (* a request issued above can be granted synchronously (e.g. an idle
       local arbiter replies from this very node), so observe any
       enter_cs the protocol signalled while we were inside perform *)
    settle t sh

  and settle t sh =
    if !(sh.pending_enter) then begin
      sh.pending_enter := false;
      trace t sh Trace.Enter_cs;
      perform t sh (Lease.granted sh.lease)
    end

  let shard_of_lock t lock =
    Shard_map.shard_of_lock ~shards:(Array.length t.shards) lock

  let deny t ~session ~lock ~req ~reason =
    t.denies <- t.denies + 1;
    t.caps.send ~dst:t.n (Wire.Deny { session; lock; req; reason })

  let drop_session_locks t ~session =
    let stale =
      Hashtbl.fold
        (fun (s, r) _ acc -> if s = session then (s, r) :: acc else acc)
        t.locks []
    in
    List.iter (Hashtbl.remove t.locks) stale

  let open_session t ~session ~inc =
    match Hashtbl.find_opt t.sessions session with
    | Some inc' when inc' >= inc -> ()  (* duplicate or stale open *)
    | prior ->
      Hashtbl.replace t.sessions session inc;
      (* a larger incarnation is hard evidence the old client is gone:
         free anything it still queues or holds, in every shard *)
      if prior <> None then begin
        drop_session_locks t ~session;
        Array.iter
          (fun sh -> perform t sh (Lease.void_session sh.lease ~session))
          t.shards
      end

  let acquire t ~session ~lock ~req =
    if not (Hashtbl.mem t.sessions session) then
      deny t ~session ~lock ~req ~reason:"no-session"
    else begin
      let sh = t.shards.(shard_of_lock t lock) in
      Hashtbl.replace t.locks (session, req) lock;
      perform t sh (Lease.acquire sh.lease ~session ~req)
    end

  let release t ~session ~lock ~req =
    if Hashtbl.mem t.sessions session then begin
      let sh = t.shards.(shard_of_lock t lock) in
      Hashtbl.remove t.locks (session, req);
      perform t sh (Lease.release sh.lease ~session ~req)
    end

  let renew t ~session ~lock ~req =
    if not (Hashtbl.mem t.sessions session) then
      deny t ~session ~lock ~req ~reason:"no-session"
    else begin
      let sh = t.shards.(shard_of_lock t lock) in
      perform t sh (Lease.renew sh.lease ~session ~req)
    end

  (* [shard] and [src_node] come off the network: a frame naming either
     out of range is dropped, not allowed to raise in the rotation *)
  let on_sproto t ~shard ~src_node payload =
    if
      shard >= 0
      && shard < Array.length t.shards
      && src_node >= 0 && src_node < t.n
    then begin
      let sh = t.shards.(shard) in
      match t.codec.decode payload with
      | Ok msg ->
        t.received <- t.received + 1;
        let src = Shard_map.site_of_node ~shard ~n:t.n src_node in
        trace t sh (Trace.Receive { src; msg = render t msg });
        P.on_message sh.pctx sh.pstate ~src msg;
        settle t sh
      | Error e ->
        trace t sh
          (Trace.Note
             (Printf.sprintf "undecodable shard message from %d: %s" src_node
                e))
    end

  let on_frame t (frame : Wire.frame) =
    match frame with
    | Sproto { shard; src; payload; _ } ->
      on_sproto t ~shard ~src_node:src payload
    | Open_session { session; inc } -> open_session t ~session ~inc
    | Acquire { session; lock; req } -> acquire t ~session ~lock ~req
    | Release_lock { session; lock; req } -> release t ~session ~lock ~req
    | Renew { session; lock; req } -> renew t ~session ~lock ~req
    | Hello _ | Heartbeat _ | Workload _ | Shutdown | Grant _ | Deny _
    | Expire _ | Strace _ | Metrics _ | Metrics_v2 _ ->
      ()

  let on_timer t ~shard ~tag =
    if shard >= 0 && shard < Array.length t.shards then begin
      let sh = t.shards.(shard) in
      if tag = Lease.timer_tag then perform t sh (Lease.on_timer sh.lease)
      else begin
        trace t sh (Trace.Timer tag);
        P.on_timer sh.pctx sh.pstate tag;
        settle t sh
      end
    end

  let on_node_failure t ~node =
    if node <> t.self && node >= 0 && node < t.n then
      Array.iter
        (fun sh ->
          let site = Shard_map.site_of_node ~shard:sh.index ~n:t.n node in
          trace t sh (Trace.Suspect site);
          P.on_failure sh.pctx sh.pstate site;
          settle t sh)
        t.shards

  let on_node_recovery t ~node =
    if node <> t.self && node >= 0 && node < t.n then
      Array.iter
        (fun sh ->
          let site = Shard_map.site_of_node ~shard:sh.index ~n:t.n node in
          trace t sh (Trace.Trust site);
          P.on_recovery sh.pctx sh.pstate site;
          settle t sh)
        t.shards

  (* Self-sends are delivered at the next turn of the owning loop, as in
     the engine. *)
  let tick t =
    Array.iter
      (fun sh ->
        while not (Queue.is_empty sh.selfq) do
          let msg = Queue.pop sh.selfq in
          P.on_message sh.pctx sh.pstate ~src:sh.my_site msg
        done;
        settle t sh)
      t.shards

  let drain_traces t =
    Array.fold_left
      (fun acc sh ->
        if Queue.is_empty sh.traces then acc
        else begin
          let entries = List.of_seq (Queue.to_seq sh.traces) in
          Queue.clear sh.traces;
          (sh.index, entries) :: acc
        end)
      [] t.shards
    |> List.rev

  let sent t = t.sent
  let received t = t.received
  let shard_count t = Array.length t.shards
  let session_count t = Hashtbl.length t.sessions

  let kinds_alist t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.kinds []

  let lease_stats t =
    let add acc alist =
      List.fold_left
        (fun acc (k, v) ->
          (k, v + Option.value ~default:0 (List.assoc_opt k acc))
          :: List.remove_assoc k acc)
        acc alist
    in
    let base =
      Array.fold_left
        (fun acc sh -> add acc (Lease.stats_alist sh.lease))
        [] t.shards
    in
    (if t.denies > 0 then [ ("service.denies", t.denies) ] else [])
    @ List.sort compare base

  let fold_states t f acc =
    Array.fold_left (fun acc sh -> f acc sh.pstate) acc t.shards

  (* Bind every shard's lease cells (labelled by shard index) plus the
     host-level counters into a registry; [proto] lets the caller bind
     protocol-owned cells too — e.g. Reliable.attach — under the same
     per-shard labels. *)
  let attach_obs ?(proto = fun _ ~labels:_ _ -> ()) t reg =
    Array.iter
      (fun sh ->
        let labels = [ ("shard", string_of_int sh.index) ] in
        Lease.attach ~labels sh.lease reg;
        proto sh.pstate ~labels reg)
      t.shards;
    Dmx_obs.Registry.probe reg "service.sent" (fun () -> t.sent);
    Dmx_obs.Registry.probe reg "service.received" (fun () -> t.received);
    Dmx_obs.Registry.probe reg "service.denies" (fun () -> t.denies);
    Dmx_obs.Registry.gauge_probe reg "service.sessions" (fun () ->
        Hashtbl.length t.sessions);
    t.obs <- Some reg
end
