module Ts = Dmx_sim.Timestamp
module Proto = Dmx_sim.Protocol
module Ct = Dmx_quorum.Coterie

type config = {
  assignment : Ct.assignment;
  k_hint : float;
  piggyback_next : bool;
  eager_fails : bool;
}

let config ?(piggyback_next = true) ?(eager_fails = true) req_sets =
  let sizes = Array.map List.length req_sets in
  let n = Array.length sizes in
  let k_hint =
    if n = 0 then 0.0
    else float_of_int (Array.fold_left ( + ) 0 sizes) /. float_of_int n
  in
  { assignment = Ct.of_req_sets req_sets; k_hint; piggyback_next; eager_fails }

let config_of_assignment ?(piggyback_next = true) ?(eager_fails = true) a =
  let k_hint = (Dmx_quorum.Builder.assignment_stats a).Dmx_quorum.Builder.k_mean in
  { assignment = a; k_hint; piggyback_next; eager_fails }

type message = Messages.t

(* Because permissions travel through proxies, a release or yield from the
   next holder can overtake, on its own channel, the release that makes it
   the holder. Such actions are stashed (one slot per site — sites run one
   request at a time) and applied the moment the lock catches up. *)
type pending_action = Released of Ts.t option | Yielded

(* Tables keyed by site id, on the simulator's one int hash
   ({!Dmx_sim.Int_hash}). *)
module Itbl = Dmx_sim.Int_hash.Tbl

let rec mem_int (x : int) = function
  | [] -> false
  | y :: rest -> x = y || mem_int x rest

(* Per-site protocol state is sparse: every per-peer map below is a
   hashtable keyed by site id rather than an N-slot array, so a site's
   memory follows the peers it actually talks to (its quorum plus its
   requesters — O(K)) instead of the universe size. At N = 10^6 the old
   arrays were 4 x 8 MB per instantiated site. *)
type state = {
  self : int;
  piggyback_next : bool;
  eager_fails : bool;
  mutable quorum : int list;
  mutable quorum_size : int;  (* distinct members of [quorum] *)
  clock : Ts.Clock.t;
  (* requester role *)
  mutable req : Ts.t option;  (* outstanding request, None when idle *)
  replied : unit Itbl.t;  (* arbiters whose permission is held *)
  mutable failed : bool;  (* received a fail or sent a yield this round *)
  mutable in_cs : bool;
  mutable tran_stack : (int * Ts.t) list;  (* (arbiter, target), newest first *)
  mutable inq_queue : int list;  (* arbiters with a deferred inquire *)
  (* arbiter role *)
  mutable lock : Ts.t;  (* request holding this site's permission *)
  queue : Ts_queue.t;  (* waiting requests, best first *)
  mutable inquired : bool;  (* inquire outstanding for the current lock *)
  fail_noted : unit Itbl.t;
      (* sites whose queued request was already failed, so they will yield
         if inquired elsewhere; never fail a request twice *)
  pending : (Ts.t * pending_action) Itbl.t;  (* keyed by site *)
  dead : unit Itbl.t;
      (* set by the Section 6 recovery only; the arbiter must never assign
         its lock to (or queue) a request from a crashed site — in-flight
         releases can otherwise hand the permission to the dead *)
}

let name = "delay-optimal"

let describe (c : config) = Printf.sprintf "K=%.1f" c.k_hint

let message_kind = Messages.kind
let pp_message = Messages.pp

let distinct q = List.length (List.sort_uniq Int.compare q)

let set_quorum st q =
  st.quorum <- q;
  st.quorum_size <- distinct q

let init (ctx : message Proto.ctx) (c : config) =
  if Ct.assignment_size c.assignment <> ctx.n then
    invalid_arg "Delay_optimal.init: req_sets size mismatch";
  let quorum = Ct.quorum_of c.assignment ctx.self in
  {
    self = ctx.self;
    piggyback_next = c.piggyback_next;
    eager_fails = c.eager_fails;
    quorum;
    quorum_size = distinct quorum;
    clock = Ts.Clock.create ();
    req = None;
    replied = Itbl.create 8;
    failed = false;
    in_cs = false;
    tran_stack = [];
    inq_queue = [];
    lock = Ts.infinity;
    queue = Ts_queue.create ();
    inquired = false;
    fail_noted = Itbl.create 8;
    pending = Itbl.create 8;
    dead = Itbl.create 8;
  }

(* ------------------------------------------------------------------ *)
(* Requester role                                                      *)
(* ------------------------------------------------------------------ *)

(* Fewer replies than distinct quorum members means one is missing: the
   common case answers without a lookup. *)
let rec all_in tbl = function
  | [] -> true
  | j :: rest -> Itbl.mem tbl j && all_in tbl rest

let all_replied st =
  Itbl.length st.replied >= st.quorum_size && all_in st.replied st.quorum

let check_enter (ctx : message Proto.ctx) st =
  if st.req <> None && (not st.in_cs) && all_replied st then begin
    st.in_cs <- true;
    st.failed <- false;
    st.inq_queue <- [];
    ctx.enter_cs ()
  end

(* Give [arbiter]'s permission back (the yield of step A.3); any transfers
   that arbiter asked of us become void. *)
let send_yield (ctx : message Proto.ctx) st arbiter =
  match st.req with
  | None -> ()
  | Some own ->
    if Itbl.mem st.replied arbiter then
      ctx.trace_event (Dmx_sim.Trace.Cede { arbiter });
    Itbl.remove st.replied arbiter;
    st.failed <- true;
    st.tran_stack <- List.filter (fun (a, _) -> a <> arbiter) st.tran_stack;
    ctx.send ~dst:arbiter (Messages.Yield { of_req = own })

(* Step A.3. An inquire is answered with a yield only when we hold that
   arbiter's permission but have already lost somewhere (failed); once we
   hold every permission the exit-time release answers it implicitly, and
   before the reply arrives the inquire waits in inq_queue. *)
let process_inquire (ctx : message Proto.ctx) st arbiter =
  if st.req <> None && (not st.in_cs) && not (all_replied st) then begin
    if Itbl.mem st.replied arbiter && st.failed then send_yield ctx st arbiter
    else if not (mem_int arbiter st.inq_queue) then
      st.inq_queue <- arbiter :: st.inq_queue
  end

(* Step A.7. *)
let on_fail (ctx : message Proto.ctx) st ~arbiter =
  ignore arbiter;
  if st.req <> None && (not st.in_cs) && not (all_replied st) then begin
    st.failed <- true;
    let pending = st.inq_queue in
    st.inq_queue <- [];
    List.iter (process_inquire ctx st) pending
  end

(* Step A.6 (with the req_queue -> inq_queue OCR fix, DESIGN.md §3.1). *)
let on_reply (ctx : message Proto.ctx) st ~arbiter ~for_req ~next =
  let current = match st.req with Some own -> Ts.equal own for_req | None -> false in
  if (not current) || not (mem_int arbiter st.quorum) then begin
    (* A permission we no longer want (failure recovery abandoned the
       request, or the quorum was rebuilt without this arbiter): hand it
       straight back so the arbiter can re-grant. *)
    st.inq_queue <- List.filter (fun a -> a <> arbiter) st.inq_queue;
    ctx.send ~dst:arbiter
      (Messages.Release { of_req = for_req; forwarded_to = None })
  end
  else begin
    if not (Itbl.mem st.replied arbiter) then
      ctx.trace_event (Dmx_sim.Trace.Acquire { arbiter });
    Itbl.replace st.replied arbiter ();
    (match next with
    | Some target -> st.tran_stack <- (arbiter, target) :: st.tran_stack
    | None -> ());
    if mem_int arbiter st.inq_queue then begin
      st.inq_queue <- List.filter (fun a -> a <> arbiter) st.inq_queue;
      process_inquire ctx st arbiter
    end;
    check_enter ctx st
  end

(* Step A.5: a transfer only binds a site that actually holds the
   arbiter's permission; stale ones are dropped. The piggybacked inquire is
   processed (or deferred) regardless. *)
let on_transfer (ctx : message Proto.ctx) st ~src ~target ~inquire =
  if st.req <> None && Itbl.mem st.replied src then
    st.tran_stack <- (src, target) :: st.tran_stack;
  if inquire then process_inquire ctx st src

(* Step A.1. *)
let request_cs (ctx : message Proto.ctx) st =
  assert (st.req = None && not st.in_cs);
  let ts = Ts.Clock.next st.clock ~site:st.self in
  st.req <- Some ts;
  st.failed <- false;
  Itbl.reset st.replied;
  st.tran_stack <- [];
  st.inq_queue <- [];
  ctx.trace_event (Dmx_sim.Trace.Adopt_quorum st.quorum);
  List.iter (fun j -> ctx.send ~dst:j (Messages.Request ts)) st.quorum

(* Step C. Honor the newest transfer per arbiter (LIFO with same-sender
   pruning), then tell every arbiter whether its permission was forwarded
   and to whom. All permissions are relinquished here, so [replied] is
   cleared now — not at the next request — which makes late transfers
   harmless (DESIGN.md §3.2). *)
let release_cs (ctx : message Proto.ctx) st =
  assert st.in_cs;
  let own = match st.req with Some own -> own | None -> assert false in
  st.in_cs <- false;
  st.req <- None;
  let honored = Itbl.create 8 in
  List.iter
    (fun (arbiter, target) ->
      if not (Itbl.mem honored arbiter) then begin
        Itbl.add honored arbiter target;
        ctx.trace_event
          (Dmx_sim.Trace.Forward { arbiter; to_ = target.Ts.site });
        ctx.send ~dst:target.Ts.site
          (Messages.Reply { arbiter; for_req = target; next = None })
      end)
    st.tran_stack;
  st.tran_stack <- [];
  List.iter
    (fun j ->
      if not (Itbl.mem honored j) then
        ctx.trace_event (Dmx_sim.Trace.Cede { arbiter = j });
      ctx.send ~dst:j
        (Messages.Release
           { of_req = own; forwarded_to = Itbl.find_opt honored j }))
    st.quorum;
  Itbl.reset st.replied;
  st.failed <- false;
  st.inq_queue <- []

(* ------------------------------------------------------------------ *)
(* Arbiter role                                                        *)
(* ------------------------------------------------------------------ *)

(* Ask the current holder to forward the permission to [target] when it
   exits, inquiring (once per lock tenure) iff [target] outranks the
   holder. *)
let send_transfer (ctx : message Proto.ctx) st target =
  let want_inquire = Ts.(target < st.lock) && not st.inquired in
  if want_inquire then st.inquired <- true;
  ctx.send ~dst:st.lock.Ts.site
    (Messages.Transfer { target; inquire = want_inquire })

(* A queued request that ranks behind the current lock must know it may
   lose (it yields elsewhere only when [failed] is set); sent at most once
   per queue residence. Deadlock-freedom depends on this: a waiting cycle
   always contains a site holding one permission while ranking behind
   another lock, and the fail is what makes it yield when inquired. *)
let note_fail (ctx : message Proto.ctx) st (entry : Ts.t) =
  if not (Itbl.mem st.fail_noted entry.Ts.site) then begin
    Itbl.replace st.fail_noted entry.Ts.site ();
    ctx.send ~dst:entry.Ts.site Messages.Fail
  end

(* Re-establish the head-vs-lock discipline after any lock reassignment:
   a head outranking the new holder triggers the (single) inquire; a head
   ranking behind it gets its fail. *)
let enforce_head_rule (ctx : message Proto.ctx) st =
  if st.eager_fails then begin
    match Ts_queue.head st.queue with
    | Some h when Ts.(h > st.lock) -> note_fail ctx st h
    | Some _ | None -> ()
  end

let take_pending st (ts : Ts.t) =
  match Itbl.find_opt st.pending ts.Ts.site with
  | Some (pts, action) when Ts.equal pts ts ->
    Itbl.remove st.pending ts.Ts.site;
    Some action
  | _ -> None

(* Point the lock at [ts] and run [announce] — unless that request already
   finished (its release/yield overtook us), in which case the stashed
   action replaces the tenure on the spot. *)
let rec assign_lock (ctx : message Proto.ctx) st ts ~announce =
  st.lock <- ts;
  st.inquired <- false;
  Itbl.remove st.fail_noted ts.Ts.site;
  match take_pending st ts with
  | None -> announce ()
  | Some (Released forwarded_to) -> apply_release ctx st ~forwarded_to
  | Some Yielded ->
    Ts_queue.insert st.queue ts;
    grant_next ctx st

(* Grant the best waiting request directly, piggybacking a transfer naming
   the runner-up (steps A.4 and the release(max) path). *)
and grant_next (ctx : message Proto.ctx) st =
  match Ts_queue.pop st.queue with
  | Some best when Itbl.mem st.dead best.Ts.site -> grant_next ctx st
  | Some best ->
    assign_lock ctx st best ~announce:(fun () ->
        let next =
          if st.piggyback_next then Ts_queue.head st.queue else None
        in
        ctx.trace_event (Dmx_sim.Trace.Grant { to_ = best.Ts.site });
        ctx.send ~dst:best.Ts.site
          (Messages.Reply { arbiter = ctx.self; for_req = best; next });
        (* without the piggyback the holder still needs to learn who is
           next, by a separate transfer message *)
        if not st.piggyback_next then begin
          match Ts_queue.head st.queue with
          | Some h -> send_transfer ctx st h
          | None -> ()
        end;
        enforce_head_rule ctx st)
  | None ->
    st.lock <- Ts.infinity;
    st.inquired <- false

(* The receiving side of a release (step C.2, DESIGN.md §3.6). *)
and apply_release (ctx : message Proto.ctx) st ~forwarded_to =
  match forwarded_to with
  | Some x when not (Itbl.mem st.dead x.Ts.site) ->
    (* The exiting holder already forwarded our permission to [x]. Remove
       exactly that request from the queue (x may have re-requested). A
       target found neither queued nor stashed has been purged since the
       transfer was issued (restart evidence arriving while this release
       sat in the reliability layer's reorder buffer): the conveyed
       permission went to the target's dead incarnation, so the tenure is
       void and the permission is reclaimed — re-instating it would park
       the lock on a request nobody will ever release. *)
    let queued = Ts_queue.remove_ts st.queue x in
    let stashed =
      match Itbl.find_opt st.pending x.Ts.site with
      | Some (pts, _) -> Ts.equal pts x
      | None -> false
    in
    if queued || stashed then
      assign_lock ctx st x ~announce:(fun () ->
          (match Ts_queue.head st.queue with
          | Some h -> send_transfer ctx st h
          | None -> ());
          enforce_head_rule ctx st)
    else grant_next ctx st
  | Some _ (* forwarded to a site that died: reclaim the permission *)
  | None ->
    grant_next ctx st

(* Step A.2, all six cases unified (DESIGN.md §3.5). A newcomer that became
   the best waiter is announced to the holder by a transfer (plus the
   inquire when it outranks the holder); it is failed when it ranks behind
   the lock (the paper's §5.2 Case 1 flow), and the waiter it superseded is
   failed as well. A newcomer that is not the best waiter just fails. *)
let on_request (ctx : message Proto.ctx) st ~src ts =
  Ts.Clock.observe st.clock ts;
  (* Note: a stashed action from this site's PREVIOUS request must survive
     the arrival of its next request — the stash resolves precisely when
     the old holder's release assigns the lock to that previous request. *)
  if Itbl.mem st.dead src then () (* a last gasp from a crashed site *)
  else if Ts.is_infinity st.lock then
    assign_lock ctx st ts ~announce:(fun () ->
        ctx.trace_event (Dmx_sim.Trace.Grant { to_ = src });
        ctx.send ~dst:src
          (Messages.Reply { arbiter = ctx.self; for_req = ts; next = None }))
  else begin
    let old_head = Ts_queue.head st.queue in
    Ts_queue.insert st.queue ts;
    Itbl.remove st.fail_noted src;
    match Ts_queue.head st.queue with
    | Some h when Ts.equal h ts ->
      (match old_head with
      | Some prev when prev.Ts.site <> src -> note_fail ctx st prev
      | Some _ | None -> ());
      if st.eager_fails && Ts.(ts > st.lock) then note_fail ctx st ts;
      send_transfer ctx st ts
    | Some _ | None -> note_fail ctx st ts
  end

(* Step A.4: the holder gives the permission back; its request rejoins the
   queue and the best waiter is granted with a piggybacked transfer. An
   out-of-order yield (for a tenure we have not assigned yet) is stashed. *)
let on_yield (ctx : message Proto.ctx) st ~src ~of_req =
  if Ts.equal st.lock of_req then begin
    Ts_queue.insert st.queue st.lock;
    grant_next ctx st
  end
  else if not (Ts.is_infinity st.lock) then
    Itbl.replace st.pending src (of_req, Yielded)

let on_release (ctx : message Proto.ctx) st ~src ~of_req ~forwarded_to =
  if Ts.equal st.lock of_req then apply_release ctx st ~forwarded_to
  else if not (Ts.is_infinity st.lock) then
    Itbl.replace st.pending src (of_req, Released forwarded_to)

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let on_message (ctx : message Proto.ctx) st ~src (msg : message) =
  match msg with
  | Messages.Request ts -> on_request ctx st ~src ts
  | Messages.Reply { arbiter; for_req; next } ->
    on_reply ctx st ~arbiter ~for_req ~next
  | Messages.Release { of_req; forwarded_to } ->
    on_release ctx st ~src ~of_req ~forwarded_to
  | Messages.Transfer { target; inquire } ->
    on_transfer ctx st ~src ~target ~inquire
  | Messages.Fail -> on_fail ctx st ~arbiter:src
  | Messages.Yield { of_req } -> on_yield ctx st ~src ~of_req
  | Messages.Failure_note _ -> ()
  (* Reliability envelopes are unwrapped by the FT layer before dispatch;
     the base protocol never sees them. Hello carries no protocol content
     (its Data envelope spread the sender's incarnation, which is all). *)
  | Messages.Data _ | Messages.Ack _ | Messages.Hello -> ()

let on_timer _ctx _st _tag = ()
let on_failure _ctx _st _site = ()

(* Base protocol ignores recoveries; the FT wrapper clears the dead flag
   so the arbiter accepts the rejoined site's requests again. *)
let on_recovery _ctx _st _site = ()

let mark_alive st site = Itbl.remove st.dead site

(* ------------------------------------------------------------------ *)
(* Section 6 failure recovery, shared with the fault-tolerant variant  *)
(* ------------------------------------------------------------------ *)

(* Abandon the outstanding request without reissuing (graceful
   degradation: no live quorum exists, so the request parks at the FT
   layer). Held permissions go back so the arbiters can serve others.
   Arbiters we have no reply from get an explicit withdraw instead: they
   may have locked their tenure on this request already — e.g. a holder
   forwarded the permission to us and crashed before the transfer got
   through — and without the withdraw that tenure waits forever for a
   release from a site that never received anything. An arbiter that
   merely queued the request stashes the withdraw and resolves it when
   the lock reaches it; one that never heard of us ignores it. Should a
   stale conveyance still arrive later, on_reply's not-current branch
   hands it straight back, so the permission is never duplicated. *)
let abandon_request (ctx : message Proto.ctx) st =
  if st.req <> None && not st.in_cs then begin
    let own = match st.req with Some o -> o | None -> assert false in
    List.iter
      (fun k ->
        if Itbl.mem st.replied k then send_yield ctx st k
        else
          ctx.send ~dst:k
            (Messages.Release { of_req = own; forwarded_to = None }))
      st.quorum;
    st.tran_stack <- [];
    st.inq_queue <- [];
    st.failed <- false;
    st.req <- None
  end

let abandon_and_rerequest (ctx : message Proto.ctx) st new_quorum =
  abandon_request ctx st;
  set_quorum st new_quorum;
  request_cs ctx st

(* Arbiter-side cleanup — the three cases of Section 6 — for a site whose
   volatile state is provably gone: its queued request, transfers naming
   it, deferred inquires from it, and any lock tenure it held are void.
   Shared by the oracle crash path (handle_site_failure) and the
   restart-evidence path of the FT wrapper (a peer reappearing with a
   larger incarnation number). *)
let purge_stale_tenure (ctx : message Proto.ctx) st ~site =
  (* Case 1: the site's request is queued. If it was the best waiter, the
     holder was told to forward to it — re-point the holder at the new
     best waiter. *)
  let was_head =
    match Ts_queue.head st.queue with
    | Some h -> h.Ts.site = site
    | None -> false
  in
  let removed = Ts_queue.remove_site st.queue site in
  Itbl.remove st.fail_noted site;
  Itbl.remove st.pending site;
  if removed && was_head && not (Ts.is_infinity st.lock) then begin
    (match Ts_queue.head st.queue with
    | Some h -> send_transfer ctx st h
    | None -> ());
    enforce_head_rule ctx st
  end;
  (* Case 2: transfers naming the site are void, and so are deferred
     inquires from it. *)
  st.tran_stack <-
    List.filter (fun (_, tgt) -> tgt.Ts.site <> site) st.tran_stack;
  st.inq_queue <- List.filter (fun a -> a <> site) st.inq_queue;
  (* Case 3: the site holds our permission: reclaim and re-grant. *)
  if st.lock.Ts.site = site then grant_next ctx st

let handle_site_failure (ctx : message Proto.ctx) st ~failed_site ~rebuild =
  Itbl.replace st.dead failed_site ();
  (* Requester side: a quorum containing the dead site can never be
     assembled; release what we hold, pick a new quorum, and re-request
     with a fresh timestamp. A site inside the CS keeps going — its exit
     releases normally (messages to the dead arbiter are simply lost). *)
  if mem_int failed_site st.quorum && not st.in_cs then begin
    match rebuild ~self:st.self ~avoid:(fun s -> s = failed_site) with
    | Some q ->
      if st.req <> None then abandon_and_rerequest ctx st q
      else set_quorum st q
    | None ->
      ctx.trace_note "failure: no quorum can be rebuilt";
      abandon_request ctx st
  end;
  (* Arbiter side: the dead flag is already up, so grant_next skips any
     in-flight requests from the corpse. *)
  purge_stale_tenure ctx st ~site:failed_site

module Internal = struct
  let lock st = st.lock
  let req_queue st = Ts_queue.to_list st.queue
  let inquired st = st.inquired
  let request st = st.req

  let replied_from st =
    Itbl.fold (fun k () acc -> k :: acc) st.replied []
    |> List.sort Int.compare

  let failed st = st.failed
  let in_cs st = st.in_cs
  let tran_stack st = st.tran_stack
  let inq_queue st = st.inq_queue
  let quorum st = st.quorum
  let set_quorum = set_quorum
  let mark_alive = mark_alive

  let copy_state st =
    {
      st with
      replied = Itbl.copy st.replied;
      queue = Ts_queue.copy st.queue;
      fail_noted = Itbl.copy st.fail_noted;
      pending = Itbl.copy st.pending;
      dead = Itbl.copy st.dead;
      clock = Ts.Clock.copy st.clock;
    }

  let handle_site_failure = handle_site_failure
  let abandon_request = abandon_request
  let abandon_and_rerequest = abandon_and_rerequest
  let purge_stale_tenure = purge_stale_tenure
end
