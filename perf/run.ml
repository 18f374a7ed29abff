(* The repo benchmark driver (see README.md).

     run.exe [--workload NAME]... [--seed S] [--seconds S] [--trace 0|1]
             [--trace-dir DIR] [--out FILE|-] [--smoke]
     run.exe compare A.json[,A.json...] B.json[,B.json...] [--benchmark FILE]

   One workload runs in this process. Several re-exec this binary once
   per workload, so each workload's peak heap is its own; the same
   re-exec is the daemon image the live workloads spawn. The last line
   of a single-workload run is its JSON summary. *)

let () = Dmx_service.Snode.run_as_child_if_requested ()

module W = Dmx_perf.Workloads
module R = Dmx_perf.Results
module Json = Dmx_model.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("run.exe: " ^ m);
      exit 2)
    fmt

type args = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable trace_dir : string option;
  mutable out : string option;
  mutable smoke : bool;
  mutable trace_capacity : int option;
}

let parse argv =
  let a =
    {
      workloads = [];
      seed = 1;
      seconds = 10.0;
      trace = false;
      trace_dir = None;
      out = None;
      smoke = false;
      trace_capacity = None;
    }
  in
  let int_of k v = match int_of_string_opt v with Some i -> i | None -> die "%s expects an integer, got %S" k v in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w W.names) then
        die "unknown workload %S (expected one of %s)" w (String.concat ", " W.names);
      a.workloads <- a.workloads @ [ w ];
      go rest
    | "--seed" :: v :: rest ->
      a.seed <- int_of "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> a.seconds <- s
      | _ -> die "--seconds expects a positive number, got %S" v);
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> a.trace <- false
      | "1" -> a.trace <- true
      | _ -> die "--trace expects 0 or 1, got %S" v);
      go rest
    | "--trace-dir" :: d :: rest ->
      a.trace <- true;
      a.trace_dir <- Some d;
      go rest
    | "--out" :: f :: rest ->
      a.out <- Some f;
      go rest
    | "--smoke" :: rest ->
      a.smoke <- true;
      go rest
    | "--trace-capacity" :: v :: rest ->
      a.trace_capacity <- Some (int_of "--trace-capacity" v);
      go rest
    | x :: _ -> die "unexpected argument %S" x
  in
  go argv;
  if a.workloads = [] then a.workloads <- W.names;
  a

let print_result ~trace (r : R.result) =
  List.iter (fun f -> Printf.printf "%s FAILED: %s\n" r.R.workload f) r.R.failures;
  let line (m : R.metric) =
    Printf.printf "%s %s %s %s (%d)\n" r.R.workload m.R.name (R.number m.R.value) m.R.unit m.R.samples
  in
  List.iter line r.R.metrics;
  if trace then List.iter line r.R.layers

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let run_one a w =
  let o =
    {
      W.seed = a.seed;
      seconds = a.seconds;
      trace = a.trace;
      trace_dir = a.trace_dir;
      smoke = a.smoke;
      trace_capacity = a.trace_capacity;
    }
  in
  let r = W.run o w in
  print_result ~trace:a.trace r;
  let file = R.to_string (R.file_json [ (w, R.result_json r) ]) in
  (match a.out with Some "-" -> print_endline file | Some path -> write_file path file | None -> ());
  print_endline (R.summary_line ~trace:a.trace r);
  exit (if r.R.correct then 0 else 1)

(* Re-exec per workload; each child prints its results file as the
   second-to-last line ([--out -]) and its summary last. *)
let run_many a =
  let child w =
    let args =
      [ "--workload"; w; "--seed"; string_of_int a.seed; "--seconds"; Printf.sprintf "%h" a.seconds; "--out"; "-" ]
      @ (if a.trace then [ "--trace"; "1" ] else [])
      @ (match a.trace_dir with Some d -> [ "--trace-dir"; d ] | None -> [])
      @ (if a.smoke then [ "--smoke" ] else [])
      @ match a.trace_capacity with Some c -> [ "--trace-capacity"; string_of_int c ] | None -> []
    in
    flush stdout;
    let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
    let rec lines acc = match input_line ic with l -> lines (l :: acc) | exception End_of_file -> acc in
    let rev = lines [] in
    let status = Unix.close_process_in ic in
    match rev with
    | _summary :: file :: rest ->
      List.iter print_endline (List.rev rest);
      let results =
        match Result.bind (Json.parse file) (fun j -> Option.to_result ~none:"no workloads" (R.field "workloads" j)) with
        | Ok (Json.Obj ws) -> ws
        | _ -> []
      in
      (status = Unix.WEXITED 0, results)
    | _ ->
      List.iter print_endline (List.rev rev);
      (false, [])
  in
  let outcomes = List.map (fun w -> (w, child w)) a.workloads in
  let all = List.concat_map (fun (_, (_, ws)) -> ws) outcomes in
  (match a.out with
  | Some "-" -> print_endline (R.to_string (R.file_json all))
  | Some path -> write_file path (R.to_string (R.file_json all))
  | None -> ());
  (match a.trace_dir with
  | Some dir ->
    let part w = Filename.concat dir (w ^ ".layers.json") in
    let parts = List.filter (fun w -> Sys.file_exists (part w)) a.workloads in
    write_file (Filename.concat dir "layers.json")
      (R.to_string
         (Json.Obj
            [
              ("schema", Json.String R.schema);
              ("workloads", Json.Obj (List.map (fun w -> (w, R.read_json (part w))) parts));
            ]))
  | None -> ());
  let failed = List.filter_map (fun (w, (ok, _)) -> if ok then None else Some w) outcomes in
  if failed = [] then Printf.printf "all %d workloads passed their checks\n" (List.length outcomes)
  else Printf.printf "FAILED: %s\n" (String.concat ", " failed);
  exit (if failed = [] then 0 else 1)

let compare argv =
  let bench, sides =
    let rec go bench sides = function
      | [] -> (bench, List.rev sides)
      | "--benchmark" :: f :: rest -> go f sides rest
      | s :: rest -> go bench (s :: sides) rest
    in
    go "BENCHMARK.json" [] argv
  in
  let a, b = match sides with [ a; b ] -> (a, b) | _ -> die "compare expects two result sets" in
  let _, e2e, _ = R.read_benchmark bench in
  let side s = List.map R.read_results (String.split_on_char ',' s) in
  let sa = side a and sb = side b in
  let values runs w m =
    List.filter_map
      (fun file -> Option.bind (List.assoc_opt w file) (fun ms -> Option.map fst (List.assoc_opt m ms)))
      runs
  in
  let workloads =
    List.sort_uniq compare (List.concat_map (List.map fst) sa)
    |> List.filter (fun w -> List.exists (List.mem_assoc w) sb)
  in
  Printf.printf "%-15s %-15s %28s %28s %8s %6s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "change" "bound" "verdict";
  let worse = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (m : R.bench_metric) ->
          match (values sa w m.R.m_name, values sb w m.R.m_name) with
          | [], _ | _, [] -> Printf.printf "%-15s %-15s missing\n" w m.R.m_name
          | va, vb ->
            let v = R.judge ~higher:m.R.higher ~bound:m.R.bound va vb in
            if v = R.Worse then incr worse;
            let show xs =
              let q1, med, q3 = R.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g]" med q1 q3
            in
            let _, ma, _ = R.quartiles va and _, mb, _ = R.quartiles vb in
            Printf.printf "%-15s %-15s %28s %28s %+7.1f%% %5.0f%%  %s\n" w m.R.m_name (show va) (show vb)
              (100.0 *. (mb -. ma) /. Float.abs ma)
              (100.0 *. m.R.bound) (R.verdict_name v))
        e2e)
    workloads;
  exit (if !worse > 0 then 2 else 0)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare rest
  | argv -> (
    let a = parse argv in
    match a.workloads with [ w ] -> run_one a w | _ -> run_many a)
