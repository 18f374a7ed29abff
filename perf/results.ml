(* The metric catalogue, workload results, their JSON forms, and the
   [compare] verdicts. BENCHMARK.json lists the same metric names and
   units as the catalogue below; the smoke test checks that they agree. *)

module Json = Dmx_model.Json

(* ---- catalogue: (name, unit), in output order ---- *)

let end_to_end =
  [
    ("ops_per_s", "op/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("cpu_ms_per_op", "ms/op");
    ("msgs_per_op", "msg/op");
    ("peak_heap_mb", "MB");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("quorum.build_ms", "ms");
    ("engine.events_per_op", "1/op");
    ("engine.heap_peak", "count");
    ("engine.self_share", "share");
    ("event_queue.ns_per_op", "ns");
    ("network.ns_per_transmit", "ns");
    ("protocol.self_share", "share");
    ("protocol.calls_per_op", "1/op");
    ("reliable.retx_per_op", "1/op");
    ("reliable.acks_per_op", "1/op");
    ("trace.entries_per_op", "1/op");
    ("trace.payload_bytes_per_entry", "B");
    ("trace.record_share", "share");
    ("oracle.share", "share");
    ("lease.ns_per_cycle", "ns");
    ("lease.grants_per_tenure", "ratio");
    ("sim_swarm.self_share", "share");
    ("codec.share", "share");
    ("shard.imbalance", "ratio");
  ]
  @ List.concat_map
      (fun f ->
        [
          ("wire.encode_ns." ^ f, "ns");
          ("wire.decode_ns." ^ f, "ns");
          ("wire.bytes." ^ f, "B");
        ])
      (List.map fst Micro.frames)
  @ [
      ("transport.frames_per_op", "1/op");
      ("transport.bytes_per_op", "B/op");
      ("driver.cpu_ms_per_op", "ms/op");
      ("daemon.cpu_share", "share");
      ("daemon.busy_share", "share");
      ("daemon.unattributed_share", "share");
      ("obs.ns_per_observe", "ns");
      ("obs.ns_per_incr", "ns");
      ("tracing.overhead_share", "share");
    ]

type metric = { name : string; value : float; unit : string; samples : int }

let lookup catalogue name =
  match List.assoc_opt name catalogue with
  | Some u -> u
  | None -> invalid_arg ("Results: metric not in the catalogue: " ^ name)

let e2e ?(samples = 1) name value =
  { name; value; unit = lookup end_to_end name; samples }

(* Every per-layer metric in catalogue order; a layer the workload does
   not exercise reads 0. *)
let layers values =
  List.iter (fun (name, _) -> ignore (lookup per_layer name)) values;
  List.map
    (fun (name, unit) ->
      { name; unit; samples = 1; value = Option.value ~default:0.0 (List.assoc_opt name values) })
    per_layer

type result = {
  workload : string;
  seed : int;
  seconds : float;
  correct : bool;
  attempted : int;
  failed : int;
  failures : string list;  (** gate messages; empty when [correct] *)
  metrics : metric list;  (** end-to-end; empty unless [correct] *)
  layers : metric list;  (** per-layer; traced runs only *)
}

(* ---- JSON output ---- *)

let number f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string : Json.t -> string = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Number f -> number f
  | Json.String s -> string s
  | Json.List l -> "[" ^ String.concat ", " (List.map to_string l) ^ "]"
  | Json.Obj kv ->
    "{" ^ String.concat ", " (List.map (fun (k, v) -> string k ^ ": " ^ to_string v) kv) ^ "}"

let int i = Json.Number (float_of_int i)

let metrics_obj ~samples ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Number m.value); ("unit", Json.String m.unit) ]
             @ if samples then [ ("samples", int m.samples) ] else []) ))
       ms)

(* The last line a run prints: exactly these four keys. *)
let summary_line ~trace r =
  to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", int r.attempted);
         ("failed", int r.failed);
         ("metrics", metrics_obj ~samples:false (if trace then r.layers else r.metrics));
       ])

let result_json r =
  Json.Obj
    [
      ("seed", int r.seed);
      ("seconds", Json.Number r.seconds);
      ("correct", Json.Bool r.correct);
      ("attempted", int r.attempted);
      ("failed", int r.failed);
      ("failures", Json.List (List.map (fun s -> Json.String s) r.failures));
      ("metrics", metrics_obj ~samples:true r.metrics);
      ("layers", metrics_obj ~samples:true r.layers);
    ]

let schema = "dmx-perf/1"

let file_json (workloads : (string * Json.t) list) =
  Json.Obj [ ("schema", Json.String schema); ("workloads", Json.Obj workloads) ]

(* ---- JSON input ---- *)

let field k = function Json.Obj kv -> List.assoc_opt k kv | _ -> None

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* workload -> metric -> value, from a results file *)
let read_results path =
  match field "workloads" (read_json path) with
  | Some (Json.Obj ws) ->
    List.map
      (fun (w, r) ->
        let values section =
          match field section r with
          | Some (Json.Obj ms) ->
            List.filter_map
              (fun (name, m) ->
                match (field "value" m, field "unit" m) with
                | Some (Json.Number v), Some (Json.String u) -> Some (name, (v, u))
                | _ -> None)
              ms
          | _ -> []
        in
        (w, values "metrics" @ values "layers"))
      ws
  | _ -> failwith (path ^ ": not a " ^ schema ^ " results file")

type bench_metric = { m_name : string; m_unit : string; higher : bool; bound : float }

(* (workload names, end-to-end metrics, per-layer metrics) of BENCHMARK.json *)
let read_benchmark path =
  let j = read_json path in
  let list k = match field k j with Some (Json.List l) -> l | _ -> failwith (path ^ ": missing " ^ k) in
  let str k o = match field k o with Some (Json.String s) -> s | _ -> failwith (path ^ ": missing " ^ k) in
  let metric o =
    {
      m_name = str "name" o;
      m_unit = str "unit" o;
      higher = str "better" o = "higher";
      bound = (match field "bound" o with Some (Json.Number b) -> b | _ -> 0.0);
    }
  in
  ( List.map (str "name") (list "workloads"),
    List.map metric (list "end_to_end"),
    List.map metric (list "per_layer") )

(* ---- compare ---- *)

(* Python's statistics.quantiles(xs, n=4), default "exclusive" method *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (nan, nan, nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [a] are the baseline runs, [b] the candidate's, paired by index. *)
let judge ~higher ~bound a b =
  let q1a, ma, q3a = quartiles a and q1b, mb, q3b = quartiles b in
  let better x y = if higher then x > y else x < y in
  let spread q1 m q3 = if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m in
  let sp = Float.max (spread q1a ma q3a) (spread q1b mb q3b) in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let worse_by = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let pairs = List.combine (List.filteri (fun i _ -> i < List.length b) a) (List.filteri (fun i _ -> i < List.length a) b) in
  let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
  if sp > bound && not all_better then Unresolved
  else if worse_by > bound then Worse
  else if
    pairs <> []
    && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
    && -.worse_by *. Float.abs ma > q3a -. q1a
  then Better
  else Same
