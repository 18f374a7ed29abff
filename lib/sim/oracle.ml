(* Post-hoc trace checker: replays a completed run's trace and validates
   the paper's global invariants. See oracle.mli for the catalogue. *)

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

(* ---- per-channel FIFO ---- *)

(* Channels are FIFO per (src, dst): receives must appear in send order.
   Losses and crashes make gaps (a send with no receive) and duplication
   makes stutters (the same send received twice, adjacently by the
   network's watermark rule); both are legal. An out-of-order receive is
   not. The match is greedy on the message's printed form: for each
   receive, in order, accept a repeat of the previous matched send or scan
   forward to the next send with the same text. *)
let check_fifo ~push sends recvs =
  let sends = Array.of_list sends in
  let cursor = ref 0 in
  let last = ref None in
  List.iter
    (fun (rt, rsite, msg) ->
      let matched_dup =
        match !last with Some (_, m) when m = msg -> true | _ -> false
      in
      let rec scan i =
        if i >= Array.length sends then None
        else
          let st, smsg = sends.(i) in
          if smsg = msg then Some (i, st) else scan (i + 1)
      in
      match scan !cursor with
      | Some (i, st) ->
        cursor := i + 1;
        last := Some (st, msg);
        if st > rt +. 1e-9 then
          push
            {
              time = rt;
              site = rsite;
              what =
                Printf.sprintf "FIFO: %S received before it was sent (%.4f)"
                  msg st;
            }
      | None ->
        if not matched_dup then
          push
            {
              time = rt;
              site = rsite;
              what =
                Printf.sprintf
                  "FIFO: received %S out of channel order (no unconsumed \
                   matching send)"
                  msg;
            })
    recvs

(* One pass over a chronological stream, given as its iterator: the list
   form ([check]) and the collector's flat arrays ([check_trace]) share it,
   so the collector's entries never have to be built as a list. *)
let scan (cfg : config) ~truncated
    ~(iter : (time:float -> site:int -> Trace.kind -> unit) -> unit) =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let n = cfg.n in
  if truncated then
    let count = ref 0 in
    iter (fun ~time:_ ~site:_ _ -> incr count);
    {
      violations = [];
      entries_checked = !count;
      cs_entries = 0;
      messages = 0;
      truncated = true;
    }
  else begin
    (* mutex *)
    let in_cs = ref [] in
    (* permission custody: holder.(a) = site currently possessing arbiter
       a's permission, if any *)
    let holder = Array.make n None in
    (* quorum adopted by each site's latest request *)
    let adopted = Array.make n None in
    (* fairness: issue time of each site's outstanding request, and how
       often a younger request entered the CS before it *)
    let pending = Array.make n Float.nan in
    let overtaken = Array.make n 0 in
    (* channels for the FIFO check, keyed [src * n + dst]; a channel with
       an endpoint outside the n-site system has no key and goes unchecked,
       as the custody checks ignore out-of-range arbiters *)
    let sends : (int, (float * string) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let recvs : (int, (float * int * string) list ref) Hashtbl.t =
      Hashtbl.create 64
    in
    let in_range s = s >= 0 && s < n in
    let channel tbl key =
      match Hashtbl.find_opt tbl key with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.add tbl key l;
        l
    in
    let cs_entries = ref 0 in
    let messages = ref 0 in
    let count = ref 0 in
    iter (fun ~time ~site kind ->
        incr count;
        match kind with
        | Trace.Enter_cs ->
          List.iter
            (fun other ->
              push
                {
                  time;
                  site;
                  what =
                    Printf.sprintf "MUTEX: CS entry while site %d is in the CS"
                      other;
                })
            !in_cs;
          in_cs := site :: !in_cs;
          (match adopted.(site) with
          | Some q when cfg.custody ->
            let missing =
              List.filter (fun a -> holder.(a) <> Some site) q
            in
            if missing <> [] then
              push
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
            if not (Float.is_nan pending.(site)) then
              for s = 0 to n - 1 do
                if
                  s <> site
                  && (not (Float.is_nan pending.(s)))
                  && pending.(s) < pending.(site)
                then begin
                  overtaken.(s) <- overtaken.(s) + 1;
                  if overtaken.(s) = bound + 1 then
                    push
                      {
                        time;
                        site = s;
                        what =
                          Printf.sprintf
                            "FAIRNESS: request pending since %.4f overtaken \
                             %d times (bound %d)"
                            pending.(s)
                            overtaken.(s) bound;
                      }
                end
              done
          | None -> ());
          pending.(site) <- Float.nan;
          overtaken.(site) <- 0
        | Trace.Exit_cs ->
          incr cs_entries;
          in_cs := List.filter (fun s -> s <> site) !in_cs
        | Trace.Request -> pending.(site) <- time
        | Trace.Adopt_quorum q ->
          List.iter
            (fun a ->
              if a < 0 || a >= n then
                push
                  {
                    time;
                    site;
                    what = Printf.sprintf "QUORUM: adopted out-of-range arbiter %d" a;
                  })
            q;
          for s = 0 to n - 1 do
            match adopted.(s) with
            | Some q' when s <> site ->
              if not (List.exists (fun a -> List.mem a q') q) then
                push
                  {
                    time;
                    site;
                    what =
                      Printf.sprintf
                        "COTERIE: quorum %s of site %d and quorum %s of site \
                         %d do not intersect"
                        (set_to_string q) site (set_to_string q') s;
                  }
            | _ -> ()
          done;
          adopted.(site) <- Some q
        | Trace.Acquire { arbiter } when arbiter >= 0 && arbiter < n ->
          (match holder.(arbiter) with
          | Some other when other <> site && cfg.custody ->
            push
              {
                time;
                site;
                what =
                  Printf.sprintf
                    "CUSTODY: acquired permission of %d while site %d still \
                     holds it"
                    arbiter other;
              }
          | _ -> ());
          holder.(arbiter) <- Some site
        | Trace.Acquire _ -> ()
        | Trace.Cede { arbiter } ->
          if arbiter >= 0 && arbiter < n && holder.(arbiter) = Some site then
            holder.(arbiter) <- None
        | Trace.Forward { arbiter; to_ } ->
          if arbiter >= 0 && arbiter < n then begin
            (match holder.(arbiter) with
            | Some h when h = site -> ()
            | _ when not cfg.custody -> ()
            | _ ->
              push
                {
                  time;
                  site;
                  what =
                    Printf.sprintf
                      "CUSTODY: forwarded permission of %d to %d without \
                       holding it"
                      arbiter to_;
                });
            holder.(arbiter) <- None
          end
        | Trace.Grant { to_ } ->
          if site >= 0 && site < n then begin
            match holder.(site) with
            | Some h when cfg.custody ->
              push
                {
                  time;
                  site;
                  what =
                    Printf.sprintf
                      "CUSTODY: arbiter granted its permission to %d while \
                       site %d still holds it"
                      to_ h;
                }
            | _ -> ()
          end
        | Trace.Send { dst; msg } ->
          if dst <> site then begin
            incr messages;
            if in_range site && in_range dst then begin
              let l = channel sends ((site * n) + dst) in
              l := (time, msg) :: !l
            end
          end
        | Trace.Receive { src; msg } ->
          if src <> site && in_range src && in_range site then begin
            let l = channel recvs ((src * n) + site) in
            l := (time, site, msg) :: !l
          end
        | Trace.Crash ->
          (* fail-stop: volatile possession dies with the site, and so does
             any authority memory of its arbiter role *)
          in_cs := List.filter (fun s -> s <> site) !in_cs;
          for a = 0 to n - 1 do
            if holder.(a) = Some site then holder.(a) <- None
          done;
          if site >= 0 && site < n then begin
            holder.(site) <- None;
            adopted.(site) <- None;
            pending.(site) <- Float.nan;
            overtaken.(site) <- 0
          end
        | Trace.Recover | Trace.Timer _ | Trace.Drop _ | Trace.Duplicate _
        | Trace.Partition _ | Trace.Suspect _ | Trace.Trust _ | Trace.Note _
          ->
          ());
    if cfg.fifo then
      Hashtbl.iter
        (fun key recvd ->
          let sent =
            match Hashtbl.find_opt sends key with
            | Some l -> List.rev !l
            | None -> []
          in
          check_fifo ~push sent (List.rev !recvd))
        recvs;
    (match cfg.bound_per_cs with
    | Some bound when !cs_entries > 0 ->
      let per_cs = float_of_int !messages /. float_of_int !cs_entries in
      if per_cs > bound then
        push
          {
            time = 0.0;
            site = -1;
            what =
              Printf.sprintf
                "BOUND: %.2f messages per CS exceeds the expected %.2f \
                 (%d messages / %d executions)"
                per_cs bound !messages !cs_entries;
          }
    | _ -> ());
    {
      violations =
        List.sort (fun a b -> compare (a.time, a.site) (b.time, b.site))
          !violations;
      entries_checked = !count;
      cs_entries = !cs_entries;
      messages = !messages;
      truncated = false;
    }
  end

let check cfg (entries : Trace.entry list) ~truncated =
  scan cfg ~truncated
    ~iter:(fun f ->
      List.iter (fun (e : Trace.entry) -> f ~time:e.time ~site:e.site e.kind) entries)

let check_trace cfg trace =
  scan cfg ~truncated:(Trace.truncated trace)
    ~iter:(fun f -> Trace.iter f trace)

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
