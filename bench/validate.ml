module Model = Dmx_model.Model

let enabled = Atomic.make false

type entry =
  | Meas of Model.measurement
  | Direct of { source : string; expectation : Model.expectation; value : float }

let lock = Mutex.create ()
let entries : entry list ref = ref []

(* A job run through [par_map] records into its own buffer, so that a
   fan-out lands its entries in job order, not in arrival order. *)
let job_buffer : entry list ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let push e =
  match Domain.DLS.get job_buffer with
  | Some buf -> buf := e :: !buf
  | None -> Mutex.protect lock (fun () -> entries := e :: !entries)

let par_map ~jobs f xs =
  let job x =
    let saved = Domain.DLS.get job_buffer in
    let buf = ref [] in
    Domain.DLS.set job_buffer (Some buf);
    let y =
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set job_buffer saved)
        (fun () -> f x)
    in
    (y, !buf)
  in
  List.map
    (fun (y, buf) ->
      List.iter push (List.rev buf);
      y)
    (Dmx_sim.Pool.map ~jobs job xs)

let reset () = Mutex.protect lock (fun () -> entries := [])

let record_report ~source ?kind ~cfg report =
  if Atomic.get enabled then
    push (Meas (Model.of_report ~source ?kind ~cfg report))

let record_check ~source expectation value =
  if Atomic.get enabled then push (Direct { source; expectation; value })

let verdicts () =
  let entries = Mutex.protect lock (fun () -> List.rev !entries) in
  List.concat_map
    (function
      | Meas m -> Model.check_measurement m
      | Direct { source; expectation; value } ->
        [ Model.check ~source expectation value ])
    entries

let summarize ?out () =
  let vs = verdicts () in
  let failed = List.filter (fun v -> not v.Model.ok) vs in
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "\nanalytic-model validation (Section 5 closed forms)\n";
  List.iter
    (fun (v : Model.verdict) ->
      add "  %s %s\n" (if v.Model.ok then "pass" else "FAIL") v.Model.message)
    vs;
  if vs = [] then
    add "  no measurements recorded (validated experiments not selected?)\n";
  add "model verdicts: %d checked, %d failed\n" (List.length vs)
    (List.length failed);
  print_string (Buffer.contents buf);
  (match out with
  | Some path ->
    let oc = open_out path in
    output_string oc (Buffer.contents buf);
    close_out oc;
    Printf.printf "wrote %s\n" path
  | None -> ());
  List.length failed
