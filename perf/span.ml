(* Wall-clock spans and op stamps, recorded from the benchmark's own
   files around calls into the layers (see timed.ml and workloads.ml).
   The driver is single-threaded on one domain, so the recorder is plain
   global state.

   A span has a name, a start, an end, the span that was open when it
   began (its parent) and the rep it belongs to. Every span feeds the
   per-name totals (count, total and self time, where self time is the
   duration minus the time covered by child spans); the first
   [keep_per_name] spans of each name are also kept whole for the Chrome
   trace export. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let keep_per_name = 10_000

type total = {
  name : string;
  mutable count : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable kept : int;
}

type span = {
  id : int;
  name_id : int;
  start_ns : int;
  dur_ns : int;
  parent : int;  (* 0 = top level *)
  rep : int;
}

let on = ref false
let rep = ref 0
let totals : total array ref = ref [||]
let kept : span list ref = ref []  (* newest first *)
let next_id = ref 0

let id name =
  let rec find i =
    if i = Array.length !totals then begin
      totals :=
        Array.append !totals
          [| { name; count = 0; total_ns = 0; self_ns = 0; kept = 0 } |];
      i
    end
    else if !totals.(i).name = name then i
    else find (i + 1)
  in
  find 0

(* the open-span stack *)
let max_depth = 64
let st_id = Array.make max_depth 0
let st_name = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let depth = ref 0

let enter name_id =
  let d = !depth in
  if d = max_depth then failwith "Span.enter: spans nested too deep";
  incr next_id;
  st_id.(d) <- !next_id;
  st_name.(d) <- name_id;
  st_child.(d) <- 0;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let dur = t - st_start.(d) in
  let tot = !totals.(st_name.(d)) in
  tot.count <- tot.count + 1;
  tot.total_ns <- tot.total_ns + dur;
  tot.self_ns <- tot.self_ns + (dur - st_child.(d));
  let parent =
    if d > 0 then begin
      st_child.(d - 1) <- st_child.(d - 1) + dur;
      st_id.(d - 1)
    end
    else 0
  in
  if tot.kept < keep_per_name then begin
    tot.kept <- tot.kept + 1;
    kept :=
      {
        id = st_id.(d);
        name_id = st_name.(d);
        start_ns = st_start.(d);
        dur_ns = dur;
        parent;
        rep = !rep;
      }
      :: !kept
  end

let span name_id f =
  if not !on then f ()
  else begin
    enter name_id;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

let reset () =
  Array.iter
    (fun t ->
      t.count <- 0;
      t.total_ns <- 0;
      t.self_ns <- 0;
      t.kept <- 0)
    !totals;
  kept := [];
  next_id := 0;
  depth := 0

let total name =
  match Array.find_opt (fun t -> t.name = name) !totals with
  | Some t -> t
  | None -> { name; count = 0; total_ns = 0; self_ns = 0; kept = 0 }

(* Sum of a field over every name with the given prefix. *)
let sum_prefix prefix field =
  Array.fold_left
    (fun acc t ->
      if String.starts_with ~prefix t.name then acc + field t else acc)
    0 !totals

(* ---- op stamps: one monotonic timestamp per completed op ----

   The untraced sim runs read their per-op wall latency from these: the
   gap between consecutive stamps is the wall time the simulator spent
   producing one more critical-section execution. *)

let stamping = ref false
let stamps = ref (Array.make 4096 0)
let n_stamps = ref 0

let stamp () =
  if !stamping then begin
    if !n_stamps = Array.length !stamps then begin
      let a = Array.make (2 * !n_stamps) 0 in
      Array.blit !stamps 0 a 0 !n_stamps;
      stamps := a
    end;
    !stamps.(!n_stamps) <- now_ns ();
    incr n_stamps
  end

(* Gaps between consecutive stamps, in ms; clears the stamps. *)
let take_gaps_ms () =
  let n = !n_stamps in
  n_stamps := 0;
  if n < 2 then [||]
  else Array.init (n - 1) (fun i -> float_of_int (!stamps.(i + 1) - !stamps.(i)) *. 1e-6)

(* ---- Chrome trace-event export ---- *)

let write_chrome path ~workload =
  let spans = List.rev !kept in
  let t0 = match spans with [] -> 0 | s :: _ -> s.start_ns in
  let oc = open_out path in
  let us ns = float_of_int ns /. 1000.0 in
  Printf.fprintf oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      let name = !totals.(s.name_id).name in
      let cat =
        match String.index_opt name '.' with
        | Some j -> String.sub name 0 j
        | None -> name
      in
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"rep\":%d}}"
        (if i = 0 then "" else ",")
        name cat
        (us (s.start_ns - t0))
        (us s.dur_ns) s.rep s.id s.parent s.rep)
    spans;
  Printf.fprintf oc
    "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":%S,\"kept_per_name\":%d,\"totals\":{"
    workload keep_per_name;
  let live = List.filter (fun t -> t.count > 0) (Array.to_list !totals) in
  List.iteri
    (fun i t ->
      Printf.fprintf oc
        "%s\n%S:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d,\"kept\":%d,\"folded\":%d}"
        (if i = 0 then "" else ",")
        t.name t.count t.total_ns t.self_ns t.kept (t.count - t.kept))
    live;
  Printf.fprintf oc "\n}}}\n";
  close_out oc
