(* A self-contained, serializable description of one simulation run. See
   schedule.mli for the format; floats are written as hex literals so a
   file round-trips bit-exactly. *)

type t = {
  algo : string;
  quorum : string;
  seed : int;
  n : int;
  execs : int;
  warmup : int;
  cs : float;
  delay : Network.delay_model;
  workload : Workload.t;
  faults : Network.fault_plan;
  crashes : (float * int) list;
  recoveries : (float * int) list;
  detector : Engine.detector;
  reliability : bool;
  stall : float;
}

let default ~algo ~n =
  {
    algo;
    quorum = "";
    seed = 42;
    n;
    execs = 50;
    warmup = 0;
    cs = 1.0;
    delay = Network.Constant 1.0;
    workload = Workload.Saturated { contenders = n };
    faults = Network.no_faults;
    crashes = [];
    recoveries = [];
    detector = Engine.Oracle 3.0;
    reliability = false;
    stall = 2000.0;
  }

let to_engine_config t =
  {
    (Engine.default ~n:t.n) with
    Engine.seed = t.seed;
    max_executions = t.execs;
    warmup = t.warmup;
    cs_duration = t.cs;
    delay = t.delay;
    workload = t.workload;
    faults = t.faults;
    crashes = t.crashes;
    recoveries = t.recoveries;
    detector = t.detector;
    stall_timeout = t.stall;
    max_time = 1.0e9;
  }

(* ---- serialization ---- *)

let fstr = Network.hex_float

let ilist xs = String.concat "," (List.map string_of_int xs)

let to_string t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "dmxrepro v1";
  line "algo %s" t.algo;
  line "quorum %s" (if t.quorum = "" then "-" else t.quorum);
  line "seed %d" t.seed;
  line "n %d" t.n;
  line "execs %d" t.execs;
  line "warmup %d" t.warmup;
  line "cs %s" (fstr t.cs);
  (match t.delay with
  | Network.Constant d -> line "delay constant %s" (fstr d)
  | Network.Uniform { lo; hi } -> line "delay uniform %s %s" (fstr lo) (fstr hi)
  | Network.Exponential { mean } -> line "delay exp %s" (fstr mean)
  | Network.Shifted_exponential { base; extra_mean } ->
    line "delay shifted %s %s" (fstr base) (fstr extra_mean));
  (match t.workload with
  | Workload.Poisson { rate_per_site } ->
    line "workload poisson %s" (fstr rate_per_site)
  | Workload.Open_loop { active; rate_per_site } ->
    line "workload open-loop %d %s" active (fstr rate_per_site)
  | Workload.Saturated { contenders } -> line "workload saturated %d" contenders
  | Workload.Think { contenders; mean_think } ->
    line "workload think %d %s" contenders (fstr mean_think)
  | Workload.Burst { requesters; at } ->
    line "workload burst %s %s" (fstr at)
      (if requesters = [] then "-" else ilist requesters));
  List.iter (line "%s") (Network.fault_lines t.faults);
  List.iter (fun (at, s) -> line "crash %s %d" (fstr at) s) t.crashes;
  List.iter (fun (at, s) -> line "recover %s %d" (fstr at) s) t.recoveries;
  (match t.detector with
  | Engine.Oracle d -> line "detector oracle %s" (fstr d)
  | Engine.Heartbeat c ->
    line "detector heartbeat %s %s" (fstr c.Detector.period)
      (fstr c.Detector.timeout));
  line "reliability %b" t.reliability;
  line "stall %s" (fstr t.stall);
  Buffer.contents b

let of_string s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> err "bad float %S" s
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> err "bad int %S" s
  in
  let ints_of s =
    try
      Ok
        (List.map
           (fun x ->
             match int_of_string_opt x with Some v -> v | None -> raise Exit)
           (String.split_on_char ',' s))
    with Exit -> err "bad int list %S" s
  in
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  in
  match lines with
  | [] -> Error "empty schedule"
  | header :: rest ->
    let* () =
      if header = "dmxrepro v1" then Ok ()
      else err "bad header %S (expected \"dmxrepro v1\")" header
    in
    let rec fold acc = function
      | [] -> Ok acc
      | l :: rest ->
        let* acc =
          match String.split_on_char ' ' l with
          | [ "algo"; a ] -> Ok { acc with algo = a }
          | [ "quorum"; q ] ->
            Ok { acc with quorum = (if q = "-" then "" else q) }
          | [ "seed"; v ] ->
            let* v = int_of v in
            Ok { acc with seed = v }
          | [ "n"; v ] ->
            let* v = int_of v in
            Ok { acc with n = v }
          | [ "execs"; v ] ->
            let* v = int_of v in
            Ok { acc with execs = v }
          | [ "warmup"; v ] ->
            let* v = int_of v in
            Ok { acc with warmup = v }
          | [ "cs"; v ] ->
            let* v = float_of v in
            Ok { acc with cs = v }
          | [ "delay"; "constant"; d ] ->
            let* d = float_of d in
            Ok { acc with delay = Network.Constant d }
          | [ "delay"; "uniform"; lo; hi ] ->
            let* lo = float_of lo in
            let* hi = float_of hi in
            Ok { acc with delay = Network.Uniform { lo; hi } }
          | [ "delay"; "exp"; m ] ->
            let* mean = float_of m in
            Ok { acc with delay = Network.Exponential { mean } }
          | [ "delay"; "shifted"; b; m ] ->
            let* base = float_of b in
            let* extra_mean = float_of m in
            Ok
              { acc with delay = Network.Shifted_exponential { base; extra_mean } }
          | [ "workload"; "poisson"; r ] ->
            let* rate_per_site = float_of r in
            Ok { acc with workload = Workload.Poisson { rate_per_site } }
          | [ "workload"; "open-loop"; a; r ] ->
            let* active = int_of a in
            let* rate_per_site = float_of r in
            Ok { acc with workload = Workload.Open_loop { active; rate_per_site } }
          | [ "workload"; "saturated"; c ] ->
            let* contenders = int_of c in
            Ok { acc with workload = Workload.Saturated { contenders } }
          | [ "workload"; "think"; c; m ] ->
            let* contenders = int_of c in
            let* mean_think = float_of m in
            Ok { acc with workload = Workload.Think { contenders; mean_think } }
          | [ "workload"; "burst"; at; rs ] ->
            let* at = float_of at in
            let* requesters = if rs = "-" then Ok [] else ints_of rs in
            Ok { acc with workload = Workload.Burst { requesters; at } }
          | [ "crash"; at; s ] ->
            let* at = float_of at in
            let* s = int_of s in
            Ok { acc with crashes = acc.crashes @ [ (at, s) ] }
          | [ "recover"; at; s ] ->
            let* at = float_of at in
            let* s = int_of s in
            Ok { acc with recoveries = acc.recoveries @ [ (at, s) ] }
          | [ "detector"; "oracle"; d ] ->
            let* d = float_of d in
            Ok { acc with detector = Engine.Oracle d }
          | [ "detector"; "heartbeat"; p; tmo ] ->
            let* period = float_of p in
            let* timeout = float_of tmo in
            Ok { acc with detector = Engine.Heartbeat { Detector.period; timeout } }
          | [ "reliability"; v ] -> (
            match bool_of_string_opt v with
            | Some reliability -> Ok { acc with reliability }
            | None -> err "bad bool %S" v)
          | [ "stall"; v ] ->
            let* stall = float_of v in
            Ok { acc with stall }
          | words -> (
            match Network.add_fault_line acc.faults words with
            | Some faults ->
              let* faults = faults in
              Ok { acc with faults }
            | None -> err "bad schedule line %S" l)
        in
        fold acc rest
    in
    let* t = fold (default ~algo:"delay-optimal" ~n:0) rest in
    let* () =
      if t.n <= 0 then err "schedule missing n"
      else
        try Ok (Network.validate ~n:t.n t.faults)
        with Invalid_argument e -> Error e
    in
    (* The fold seeds n-dependent defaults with n = 0; re-derive them now
       that n is known, so a file that omits `workload` means "saturated,
       all sites" exactly as [default ~n] would. At huge N that implicit
       default would instantiate every site, so refuse it loudly instead
       of letting Workload's guard fire deep inside the run. *)
    match t.workload with
    | Workload.Saturated { contenders } when contenders <= 0 ->
      if t.n > Workload.max_eager_sites then
        err
          "schedule has n = %d but no explicit workload: the implied \
           \"saturated, all %d sites\" would instantiate every site; add a \
           `workload open-loop <active> <rate>` or `workload saturated \
           <contenders>` line with at most %d active sites"
          t.n t.n Workload.max_eager_sites
      else Ok { t with workload = Workload.Saturated { contenders = t.n } }
    | _ -> Ok t

let to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let of_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | s -> of_string s

(* ---- shrinking ---- *)

(* Clamp every site reference after [n] changed; drop fault-plan entries
   that no longer make sense. *)
let restrict_n t n =
  let keep_site s = s >= 0 && s < n in
  let workload =
    match t.workload with
    | Workload.Poisson _ as w -> w
    | Workload.Open_loop { active; rate_per_site } ->
      Workload.Open_loop { active = max 1 (min active n); rate_per_site }
    | Workload.Saturated { contenders } ->
      Workload.Saturated { contenders = max 2 (min contenders n) }
    | Workload.Think { contenders; mean_think } ->
      Workload.Think { contenders = max 2 (min contenders n); mean_think }
    | Workload.Burst { requesters; at } ->
      let requesters = List.filter keep_site requesters in
      Workload.Burst
        { requesters = (if requesters = [] then [ 0 ] else requesters); at }
  in
  let partitions =
    List.filter_map
      (fun (p : Network.partition) ->
        let groups =
          List.filter (fun g -> g <> [])
            (List.map (List.filter keep_site) p.Network.groups)
        in
        if groups = [] then None else Some { p with Network.groups })
      t.faults.Network.partitions
  in
  {
    t with
    n;
    workload;
    faults = { t.faults with Network.partitions };
    crashes = List.filter (fun (_, s) -> keep_site s) t.crashes;
    recoveries = List.filter (fun (_, s) -> keep_site s) t.recoveries;
  }

let drop_nth n xs = List.filteri (fun i _ -> i <> n) xs

(* Candidate simplifications, most aggressive first: fewer sites, fewer
   requests, fewer fault events, then less delay jitter. Every candidate is
   strictly "smaller" in a well-founded sense, so greedy minimization
   terminates. *)
let shrink t =
  let cands = ref [] in
  let add c = cands := c :: !cands in
  (* delay jitter last (emitted first, reversed below) *)
  (match t.delay with
  | Network.Constant _ -> ()
  | d -> add { t with delay = Network.Constant (Network.mean_delay d) });
  if t.warmup > 0 then add { t with warmup = 0 };
  (* fault events *)
  List.iteri
    (fun i _ -> add { t with crashes = drop_nth i t.crashes; recoveries = [] })
    t.crashes;
  if t.crashes = [] && t.recoveries <> [] then add { t with recoveries = [] };
  List.iteri
    (fun i _ ->
      add
        {
          t with
          faults =
            {
              t.faults with
              Network.delay_spikes = drop_nth i t.faults.Network.delay_spikes;
            };
        })
    t.faults.Network.delay_spikes;
  List.iteri
    (fun i _ ->
      add
        {
          t with
          faults =
            {
              t.faults with
              Network.partitions = drop_nth i t.faults.Network.partitions;
            };
        })
    t.faults.Network.partitions;
  if t.faults.Network.duplication > 0.0 then
    add { t with faults = { t.faults with Network.duplication = 0.0 } };
  if t.faults.Network.loss > 0.0 then
    add { t with faults = { t.faults with Network.loss = 0.0 } };
  if t.faults <> Network.no_faults then
    add { t with faults = Network.no_faults };
  (* fewer requests *)
  (match t.workload with
  | Workload.Saturated { contenders } when contenders > 2 ->
    add { t with workload = Workload.Saturated { contenders = contenders / 2 } }
  | Workload.Think { contenders; mean_think } when contenders > 2 ->
    add
      { t with workload = Workload.Think { contenders = contenders / 2; mean_think } }
  | Workload.Burst { requesters; at } when List.length requesters > 2 ->
    let keep = List.filteri (fun i _ -> i mod 2 = 0) requesters in
    add { t with workload = Workload.Burst { requesters = keep; at } }
  | _ -> ());
  if t.execs > 4 then add { t with execs = max 4 (t.execs / 2) };
  (* fewer sites *)
  if t.n > 3 then add (restrict_n t (t.n - 1));
  if t.n > 5 then add (restrict_n t (t.n / 2));
  !cands

let minimize ?(max_attempts = 200) ~valid ~fails t =
  let attempts = ref 0 in
  let try_cand c = valid c && (incr attempts; fails c) in
  let rec go t =
    if !attempts >= max_attempts then t
    else
      match List.find_opt try_cand (shrink t) with
      | Some smaller -> go smaller
      | None -> t
  in
  go t
