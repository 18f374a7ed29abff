(* Benchmark/experiment driver: regenerates every table and figure of the
   paper's evaluation (DESIGN.md §5). Run all:

     dune exec bench/main.exe

   or select experiments:

     dune exec bench/main.exe -- table1 sync-delay --quick

   Flags: --quick (smaller quotas), --check (oracle-verify every run),
   --jobs N (parallel fan-out inside each experiment; output is
   bit-identical at any N), --json[=FILE] (write a BENCH_pr5.json perf
   snapshot; see PERFORMANCE.md), --validate[-out=FILE] (re-check the
   measured tables against the paper's Section 5 closed forms; exit 2
   on any band violation). *)

(* The cluster and lock-service experiments re-execute this binary as
   the daemon image (see Dmx_service.Snode.env_var); the trampoline must
   run first. *)
let () = Dmx_service.Snode.run_as_child_if_requested ()

let usage () =
  print_endline
    "usage: main.exe [--quick] [--check] [--jobs N] [--json[=FILE]] \
     [--validate] [--validate-out=FILE] [EXPERIMENT...]";
  print_endline "experiments:";
  Dmx_bench.Suite.print_experiments ();
  print_endline "  all              run everything (default)"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = ref false in
  let check = ref false in
  let jobs = ref (Dmx_sim.Pool.default_jobs ()) in
  let json = ref None in
  let validate = ref false in
  let validate_out = ref None in
  let selected = ref [] in
  let bad fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt in
  let jobs_of s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> j
    | _ -> bad "--jobs expects a positive integer, got %S" s
  in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest -> quick := true; parse rest
    | "--check" :: rest -> check := true; parse rest
    | "--jobs" :: v :: rest -> jobs := jobs_of v; parse rest
    | [ "--jobs" ] -> bad "--jobs expects a value"
    | "--json" :: rest -> json := Some "BENCH_pr5.json"; parse rest
    | "--validate" :: rest -> validate := true; parse rest
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | "all" :: rest -> parse rest
    | a :: rest ->
      (match String.index_opt a '=' with
      | Some i when String.length a > 14 && String.sub a 0 14 = "--validate-out" ->
        validate := true;
        validate_out := Some (String.sub a (i + 1) (String.length a - i - 1))
      | Some i when String.length a > 6 && String.sub a 0 6 = "--jobs" ->
        jobs := jobs_of (String.sub a (i + 1) (String.length a - i - 1))
      | Some i when String.length a > 6 && String.sub a 0 6 = "--json" ->
        json := Some (String.sub a (i + 1) (String.length a - i - 1))
      | _ -> selected := a :: !selected);
      parse rest
  in
  parse args;
  match Dmx_bench.Suite.resolve (List.rev !selected) with
  | Error unknown ->
    Printf.printf "unknown experiment(s): %s\n\n" (String.concat ", " unknown);
    usage ();
    exit 1
  | Ok to_run ->
    exit
      (Dmx_bench.Suite.run ~jobs:!jobs ?json:!json ~validate:!validate
         ?validate_out:!validate_out ~quick:!quick ~check:!check to_run)
