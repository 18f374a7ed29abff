(* Online trace checker: consumes a run's trace one entry at a time and
   validates the paper's global invariants. See oracle.mli for the
   catalogue. *)

type config = {
  n : int;
  fifo : bool;
  custody : bool;
  max_overtake : int option;
  bound_per_cs : float option;
}

let default ~n =
  { n; fifo = true; custody = true; max_overtake = None; bound_per_cs = None }

type violation = { time : float; site : int; what : string }

type verdict = {
  violations : violation list;
  entries_checked : int;
  cs_entries : int;
  messages : int;
  truncated : bool;
}

let ok v = v.violations = [] && not v.truncated

let pp_violation ppf v =
  Format.fprintf ppf "[%10.4f] site %3d  %s" v.time v.site v.what

let pp_verdict ppf v =
  if v.truncated then
    Format.fprintf ppf
      "trace truncated after %d entries: invariants not checkable"
      v.entries_checked
  else if v.violations = [] then
    Format.fprintf ppf "trace OK: %d entries, %d CS executions, %d messages"
      v.entries_checked v.cs_entries v.messages
  else begin
    Format.fprintf ppf "trace REJECTED: %d violation(s)@,"
      (List.length v.violations);
    Format.pp_print_list pp_violation ppf v.violations
  end

let set_to_string xs =
  "{" ^ String.concat "," (List.map string_of_int (List.sort compare xs)) ^ "}"

(* ---- the online checker ---- *)

(* Channels are FIFO per (src, dst): receives must appear in send order.
   Losses and crashes make gaps (a send with no receive) and duplication
   makes stutters (the same send received twice, adjacently by the
   network's watermark rule); both are legal. An out-of-order receive is
   not. The match is greedy on the message's printed form: each receive
   pops forward to the next unconsumed send with the same text, or else
   repeats the previous match. A receive can only be matched against
   sends already made, so a channel holds just its unconsumed sends:
   those in flight, plus any lost ones a later receive has not yet
   skipped. *)
type channel = { unconsumed : string Queue.t; mutable last : string option }

type t = {
  cfg : config;
  mutable violations : violation list;  (** newest first *)
  mutable in_cs : int list;
  holder : int option array;
      (** site currently possessing arbiter a's permission, if any *)
  adopted : int list option array;
      (** quorum adopted by each site's latest request *)
  pending : float array;
      (** fairness: issue time of each site's outstanding request *)
  overtaken : int array;
      (** how often a younger request entered the CS before it *)
  channels : (int, channel) Hashtbl.t;
      (** keyed [src * n + dst]; a channel with an endpoint outside the
          n-site system has no key and goes unchecked, as the custody
          checks ignore out-of-range arbiters *)
  mutable cs_entries : int;
  mutable messages : int;
  mutable count : int;
}

let create cfg =
  let n = cfg.n in
  {
    cfg;
    violations = [];
    in_cs = [];
    holder = Array.make n None;
    adopted = Array.make n None;
    pending = Array.make n Float.nan;
    overtaken = Array.make n 0;
    channels = Hashtbl.create 64;
    cs_entries = 0;
    messages = 0;
    count = 0;
  }

let push t v = t.violations <- v :: t.violations

let channel t key =
  match Hashtbl.find_opt t.channels key with
  | Some c -> c
  | None ->
    let c = { unconsumed = Queue.create (); last = None } in
    Hashtbl.add t.channels key c;
    c

(* Drop the unconsumed sends up to and including the first one reading
   [msg]; false, leaving the queue alone, when there is none. *)
let consume q msg =
  let rec find i s =
    match s () with
    | Seq.Nil -> None
    | Seq.Cons (m, s) -> if String.equal m msg then Some i else find (i + 1) s
  in
  match find 0 (Queue.to_seq q) with
  | None -> false
  | Some i ->
    for _ = 0 to i do
      ignore (Queue.take q)
    done;
    true

let receive t ~time ~site c msg =
  if consume c.unconsumed msg then c.last <- Some msg
  else
    match c.last with
    | Some m when String.equal m msg -> ()
    | _ ->
      push t
        {
          time;
          site;
          what =
            Printf.sprintf
              "FIFO: received %S out of channel order (no unconsumed \
               matching send)"
              msg;
        }

let in_range n s = s >= 0 && s < n

let feed t ~time ~site kind =
  let cfg = t.cfg in
  let n = cfg.n in
  t.count <- t.count + 1;
  match kind with
  | Trace.Enter_cs ->
    List.iter
      (fun other ->
        push t
          {
            time;
            site;
            what =
              Printf.sprintf "MUTEX: CS entry while site %d is in the CS" other;
          })
      t.in_cs;
    t.in_cs <- site :: t.in_cs;
    (match t.adopted.(site) with
    | Some q when cfg.custody ->
      let missing = List.filter (fun a -> t.holder.(a) <> Some site) q in
      if missing <> [] then
        push t
          {
            time;
            site;
            what =
              Printf.sprintf
                "QUORUM: CS entry without permissions %s of quorum %s"
                (set_to_string missing) (set_to_string q);
          }
    | _ -> ());
    (match cfg.max_overtake with
    | Some bound ->
      if not (Float.is_nan t.pending.(site)) then
        for s = 0 to n - 1 do
          if
            s <> site
            && (not (Float.is_nan t.pending.(s)))
            && t.pending.(s) < t.pending.(site)
          then begin
            t.overtaken.(s) <- t.overtaken.(s) + 1;
            if t.overtaken.(s) = bound + 1 then
              push t
                {
                  time;
                  site = s;
                  what =
                    Printf.sprintf
                      "FAIRNESS: request pending since %.4f overtaken %d \
                       times (bound %d)"
                      t.pending.(s) t.overtaken.(s) bound;
                }
          end
        done
    | None -> ());
    t.pending.(site) <- Float.nan;
    t.overtaken.(site) <- 0
  | Trace.Exit_cs ->
    t.cs_entries <- t.cs_entries + 1;
    t.in_cs <- List.filter (fun s -> s <> site) t.in_cs
  | Trace.Request -> t.pending.(site) <- time
  | Trace.Adopt_quorum q ->
    List.iter
      (fun a ->
        if a < 0 || a >= n then
          push t
            {
              time;
              site;
              what = Printf.sprintf "QUORUM: adopted out-of-range arbiter %d" a;
            })
      q;
    for s = 0 to n - 1 do
      match t.adopted.(s) with
      | Some q' when s <> site ->
        if not (List.exists (fun a -> List.mem a q') q) then
          push t
            {
              time;
              site;
              what =
                Printf.sprintf
                  "COTERIE: quorum %s of site %d and quorum %s of site %d do \
                   not intersect"
                  (set_to_string q) site (set_to_string q') s;
            }
      | _ -> ()
    done;
    t.adopted.(site) <- Some q
  | Trace.Acquire { arbiter } when arbiter >= 0 && arbiter < n ->
    (match t.holder.(arbiter) with
    | Some other when other <> site && cfg.custody ->
      push t
        {
          time;
          site;
          what =
            Printf.sprintf
              "CUSTODY: acquired permission of %d while site %d still holds \
               it"
              arbiter other;
        }
    | _ -> ());
    t.holder.(arbiter) <- Some site
  | Trace.Acquire _ -> ()
  | Trace.Cede { arbiter } ->
    if arbiter >= 0 && arbiter < n && t.holder.(arbiter) = Some site then
      t.holder.(arbiter) <- None
  | Trace.Forward { arbiter; to_ } ->
    if arbiter >= 0 && arbiter < n then begin
      (match t.holder.(arbiter) with
      | Some h when h = site -> ()
      | _ when not cfg.custody -> ()
      | _ ->
        push t
          {
            time;
            site;
            what =
              Printf.sprintf
                "CUSTODY: forwarded permission of %d to %d without holding it"
                arbiter to_;
          });
      t.holder.(arbiter) <- None
    end
  | Trace.Grant { to_ } ->
    if site >= 0 && site < n then begin
      match t.holder.(site) with
      | Some h when cfg.custody ->
        push t
          {
            time;
            site;
            what =
              Printf.sprintf
                "CUSTODY: arbiter granted its permission to %d while site %d \
                 still holds it"
                to_ h;
          }
      | _ -> ()
    end
  | Trace.Send { dst; msg } ->
    if dst <> site then begin
      t.messages <- t.messages + 1;
      if cfg.fifo && in_range n site && in_range n dst then
        Queue.push msg (channel t ((site * n) + dst)).unconsumed
    end
  | Trace.Receive { src; msg } ->
    if cfg.fifo && src <> site && in_range n src && in_range n site then
      receive t ~time ~site (channel t ((src * n) + site)) msg
  | Trace.Crash ->
    (* fail-stop: volatile possession dies with the site, and so does any
       authority memory of its arbiter role *)
    t.in_cs <- List.filter (fun s -> s <> site) t.in_cs;
    for a = 0 to n - 1 do
      if t.holder.(a) = Some site then t.holder.(a) <- None
    done;
    if site >= 0 && site < n then begin
      t.holder.(site) <- None;
      t.adopted.(site) <- None;
      t.pending.(site) <- Float.nan;
      t.overtaken.(site) <- 0
    end
  | Trace.Recover | Trace.Timer _ | Trace.Drop _ | Trace.Duplicate _
  | Trace.Partition _ | Trace.Suspect _ | Trace.Trust _ | Trace.Note _ ->
    ()

let finish t =
  let bound =
    match t.cfg.bound_per_cs with
    | Some bound when t.cs_entries > 0 ->
      let per_cs = float_of_int t.messages /. float_of_int t.cs_entries in
      if per_cs > bound then
        [
          {
            time = 0.0;
            site = -1;
            what =
              Printf.sprintf
                "BOUND: %.2f messages per CS exceeds the expected %.2f (%d \
                 messages / %d executions)"
                per_cs bound t.messages t.cs_entries;
          };
        ]
      else []
    | _ -> []
  in
  {
    violations =
      List.sort
        (fun a b -> compare (a.time, a.site) (b.time, b.site))
        (bound @ t.violations);
    entries_checked = t.count;
    cs_entries = t.cs_entries;
    messages = t.messages;
    truncated = false;
  }

(* A clipped stream proves nothing, so it is counted, not checked. *)
let refuse ~length =
  {
    violations = [];
    entries_checked = length;
    cs_entries = 0;
    messages = 0;
    truncated = true;
  }

let check cfg (entries : Trace.entry list) ~truncated =
  if truncated then refuse ~length:(List.length entries)
  else begin
    let t = create cfg in
    List.iter
      (fun (e : Trace.entry) -> feed t ~time:e.time ~site:e.site e.kind)
      entries;
    finish t
  end

let check_trace cfg trace =
  if Trace.truncated trace then refuse ~length:(Trace.length trace)
  else begin
    let t = create cfg in
    Trace.iter (feed t) trace;
    finish t
  end

(* ---- expected per-protocol message bounds ---- *)

type load = Light | Heavy

(* Upper bounds on messages per CS execution, tolerance included: the
   paper's asymptotic counts plus slack for startup transients, deadlock-
   resolution traffic (inquire/fail/yield) and the measurement including
   the pre-steady-state prefix. Only meaningful on fault-free runs. *)
let expected_bound ~algo ~n ~k load =
  let nf = float_of_int n and kf = float_of_int k in
  let lg = log (float_of_int (max 2 n)) /. log 2.0 in
  match (algo, load) with
  | "delay-optimal", Light | "ft-delay-optimal", Light ->
    (* 3(K-1): request, reply, release *)
    Some ((3.2 *. (kf -. 1.0)) +. 4.0)
  | "delay-optimal", Heavy | "ft-delay-optimal", Heavy ->
    (* 5..6(K-1) with transfers, inquires, fails and yields *)
    Some ((6.5 *. (kf -. 1.0)) +. 6.0)
  | "maekawa", Light -> Some ((3.2 *. (kf -. 1.0)) +. 4.0)
  | "maekawa", Heavy -> Some ((6.0 *. (kf -. 1.0)) +. 6.0)
  (* The broadcast baselines pay their full per-request cost up front, so
     requests still pending when the run ends inflate the per-CS average
     well past the steady-state count (3(N-1), 2(N-1), N, ...): the
     multipliers carry ~30% headroom for that. *)
  | "lamport", _ -> Some ((3.6 *. (nf -. 1.0)) +. 6.0)
  | "ricart-agrawala", _ -> Some ((2.6 *. (nf -. 1.0)) +. 6.0)
  | "suzuki-kasami", _ -> Some ((1.5 *. nf) +. 6.0)
  | "singhal-dynamic", _ ->
    (* O(N) broadcast-like under heavy load, with request-set growth
       transients pushing past N; measured ~1.9N at n=9 saturated *)
    Some ((2.5 *. nf) +. 6.0)
  | "singhal-heuristic", _ -> Some ((2.6 *. nf) +. 8.0)
  | "raymond", _ ->
    (* ~4 messages per hop on the default balanced binary tree *)
    Some ((5.0 *. (lg +. 1.0)) +. 8.0)
  | _ -> None

(* How many times a pending request may be overtaken by younger requests
   before the oracle calls starvation. Timestamp-priority protocols resolve
   ties in bounded in-flight windows; token protocols serve in structural
   (tree/queue) order, where "younger first" is routine but still bounded
   by the structure size. Calibrated against the fault-free fuzz corpus. *)
let fairness_bound ~algo ~n =
  match algo with
  | "delay-optimal" | "ft-delay-optimal" | "maekawa" | "lamport"
  | "ricart-agrawala" ->
    Some ((4 * n) + 12)
  | "suzuki-kasami" | "singhal-dynamic" | "singhal-heuristic" ->
    Some ((6 * n) + 16)
  | _ -> None

let replay_file = Schedule.of_file
