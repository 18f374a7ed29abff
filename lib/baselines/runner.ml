module E = Dmx_sim.Engine
module B = Dmx_quorum.Builder
module Trace = Dmx_sim.Trace
module Oracle = Dmx_sim.Oracle
module Schedule = Dmx_sim.Schedule

type t = {
  name : string;
  variant : string;
  run : Dmx_sim.Engine.config -> Dmx_sim.Engine.report;
  run_traced :
    ?trace_sink:Trace.t -> Dmx_sim.Engine.config -> Dmx_sim.Engine.report;
}

(* Atomics, not refs: checked runs execute concurrently under
   [Dmx_sim.Pool] and every worker domain bumps [check_failures]. *)
let always_check = Atomic.make false
let check_failures = Atomic.make 0

(* The FIFO and custody checks are relaxed exactly where their
   assumptions break (see Oracle.config): crashed-and-recovered sites
   reuse reliability sequence numbers and keep volatile possessions, and
   duplicated copies take independent delays. *)
let oracle_config (cfg : E.config) =
  let crashy = cfg.E.crashes <> [] in
  let dupy = cfg.E.faults.Dmx_sim.Network.duplication > 0.0 in
  {
    (Oracle.default ~n:cfg.E.n) with
    Oracle.fifo = not (crashy || dupy);
    custody = not crashy;
  }

(* A checked run feeds the Oracle as the engine records, through a
   streaming collector: no trace is stored, so a run of any length is
   checked. Violations go to stderr and bump [check_failures] so drivers
   (bench, CLI) can exit nonzero at the end. *)
let checked ?(verbose = false) ~name run_traced (cfg : E.config) =
  if not (Atomic.get always_check) then run_traced ?trace_sink:None cfg
  else begin
    let oracle = Oracle.create (oracle_config cfg) in
    let sink = Trace.stream (Oracle.feed oracle) in
    let r = run_traced ?trace_sink:(Some sink) cfg in
    let v = Oracle.finish oracle in
    let ok = Oracle.ok v in
    if not ok then ignore (Atomic.fetch_and_add check_failures 1);
    (* Render first, then emit with a single write: concurrent checked
       runs must not interleave partial lines on stderr. *)
    if verbose || not ok then
      prerr_string (Format.asprintf "oracle[%s]: %a@." name Oracle.pp_verdict v);
    r
  end

let run_reporting t cfg = checked ~verbose:true ~name:t.name t.run_traced cfg

let make ~name ~variant run_traced =
  { name; variant; run_traced; run = checked ~name run_traced }

let delay_optimal ?(kind = B.Grid) ~n () =
  let req_sets = B.req_sets kind ~n in
  let module M = E.Make (Dmx_core.Delay_optimal) in
  make ~name:"delay-optimal" ~variant:(B.kind_name kind)
    (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg (Dmx_core.Delay_optimal.config req_sets))

let ft_delay_optimal ?reliability ?trust_detector ?(kind = B.Tree) ~n () =
  let config =
    Dmx_core.Ft_delay_optimal.config_of_kind ?reliability ?trust_detector kind
      ~n ~broadcast:false
  in
  let module M = E.Make (Dmx_core.Ft_delay_optimal) in
  make ~name:"ft-delay-optimal" ~variant:(B.kind_name kind)
    (fun ?trace_sink cfg -> M.run ?trace_sink cfg config)

let maekawa ?(kind = B.Grid) ~n () =
  let req_sets = B.req_sets kind ~n in
  let module M = E.Make (Maekawa_me) in
  make ~name:"maekawa" ~variant:(B.kind_name kind) (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg { Maekawa_me.req_sets })

let lamport ~n =
  ignore n;
  let module M = E.Make (Lamport) in
  make ~name:"lamport" ~variant:"" (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg ())

let ricart_agrawala ~n =
  ignore n;
  let module M = E.Make (Ricart_agrawala) in
  make ~name:"ricart-agrawala" ~variant:"" (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg ())

let singhal_dynamic ~n =
  ignore n;
  let module M = E.Make (Singhal_dynamic) in
  make ~name:"singhal-dynamic" ~variant:"" (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg ())

let suzuki_kasami ~n =
  ignore n;
  let module M = E.Make (Suzuki_kasami) in
  make ~name:"suzuki-kasami" ~variant:"" (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg ())

let singhal_heuristic ~n =
  ignore n;
  let module M = E.Make (Singhal_heuristic) in
  make ~name:"singhal-heuristic" ~variant:"" (fun ?trace_sink cfg ->
      M.run ?trace_sink cfg ())

let raymond ?(chain = false) ~n () =
  let topology = if chain then Raymond.chain ~n else Raymond.binary_tree ~n in
  let module M = E.Make (Raymond) in
  make ~name:"raymond"
    ~variant:(if chain then "chain" else "binary-tree")
    (fun ?trace_sink cfg -> M.run ?trace_sink cfg topology)

let all ~n =
  [
    lamport ~n;
    ricart_agrawala ~n;
    singhal_dynamic ~n;
    maekawa ~n ();
    delay_optimal ~n ();
    suzuki_kasami ~n;
    singhal_heuristic ~n;
    raymond ~n ();
  ]

let registry =
  [
    ("delay-optimal", fun ~n -> delay_optimal ~n ());
    ("ft-delay-optimal", fun ~n -> ft_delay_optimal ~n ());
    ("maekawa", fun ~n -> maekawa ~n ());
    ("lamport", lamport);
    ("ricart-agrawala", ricart_agrawala);
    ("singhal-dynamic", singhal_dynamic);
    ("suzuki-kasami", suzuki_kasami);
    ("singhal-heuristic", singhal_heuristic);
    ("raymond", fun ~n -> raymond ~n ());
  ]

let names = List.map fst registry

let by_name name =
  match List.assoc_opt name registry with
  | Some f -> Ok f
  | None ->
    Error
      (Printf.sprintf "unknown algorithm %S (expected one of: %s)" name
         (String.concat ", " names))

(* Under an unreliable network or detector, the FT variant needs its
   retry/ack layer and must treat detector output as suspicion, not truth;
   the plain scenarios keep the paper-faithful bare channels. *)
let of_algo ?(faults = Dmx_sim.Network.no_faults) ?(detector = E.Oracle 3.0)
    ?kind algo ~n =
  let lossy =
    faults.Dmx_sim.Network.loss > 0.0
    || faults.Dmx_sim.Network.duplication > 0.0
    || faults.Dmx_sim.Network.partitions <> []
  in
  let trusted =
    match detector with E.Oracle _ -> true | E.Heartbeat _ -> false
  in
  match algo with
  | "delay-optimal" -> Ok (delay_optimal ?kind ~n ())
  | "ft-delay-optimal" ->
    let reliability =
      if lossy || not trusted then Some Dmx_core.Reliable.default else None
    in
    Ok (ft_delay_optimal ?reliability ~trust_detector:trusted ?kind ~n ())
  | "maekawa" -> Ok (maekawa ?kind ~n ())
  | "raymond-chain" -> Ok (raymond ~chain:true ~n ())
  | other -> Result.map (fun f -> f ~n) (by_name other)

let of_schedule ?(extra = []) (s : Schedule.t) =
  match List.assoc_opt s.Schedule.algo extra with
  | Some f -> Ok (f ~n:s.Schedule.n)
  | None -> (
    let kind =
      if s.Schedule.quorum = "" then Ok None
      else Result.map Option.some (B.parse_kind s.Schedule.quorum)
    in
    match kind with
    | Error e -> Error e
    | Ok kind -> (
      match s.Schedule.algo with
      | "ft-delay-optimal" ->
        (* the schedule states the reliability intent explicitly, so a
           shrunk fault-free reproducer still runs the layer it ran with *)
        let reliability =
          if s.Schedule.reliability then Some Dmx_core.Reliable.default
          else None
        in
        let trusted =
          match s.Schedule.detector with
          | E.Oracle _ -> true
          | E.Heartbeat _ -> false
        in
        Ok
          (ft_delay_optimal ?reliability ~trust_detector:trusted ?kind
             ~n:s.Schedule.n ())
      | algo ->
        of_algo ~faults:s.Schedule.faults ~detector:s.Schedule.detector ?kind
          algo ~n:s.Schedule.n))

let run_schedule ?extra (s : Schedule.t) =
  match of_schedule ?extra s with
  | Error e -> Error e
  | Ok r ->
    let sink = Trace.create ~enabled:true ~capacity:4_000_000 () in
    let report = r.run_traced ?trace_sink:(Some sink) (Schedule.to_engine_config s) in
    Ok (report, sink)
