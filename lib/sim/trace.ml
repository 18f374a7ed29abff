type kind =
  | Send of { dst : int; msg : string }
  | Receive of { src : int; msg : string }
  | Enter_cs
  | Exit_cs
  | Timer of int
  | Crash
  | Recover
  | Drop of { dst : int; reason : string }
  | Duplicate of { dst : int }
  | Partition of { heal : bool }
  | Suspect of int
  | Trust of int
  | Note of string
  (* Semantic protocol events, recorded by instrumented protocols through
     [Protocol.ctx.trace_event]; the {!Oracle} consumes them. *)
  | Request
  | Adopt_quorum of int list
  | Acquire of { arbiter : int }
  | Cede of { arbiter : int }
  | Forward of { arbiter : int; to_ : int }
  | Grant of { to_ : int }

type entry = { time : float; site : int; kind : kind }

(* Entries live column-wise in three parallel arrays, one slot per entry
   in recording order: an unboxed float array of times, an int array of
   sites and an array of kinds. Recording writes three slots (no cons
   cell, entry record or boxed float); the arrays double as they fill, up
   to [capacity + 1] slots. A streaming collector keeps no slots and
   hands each record to its consumer instead. *)
type t = {
  enabled : bool;
  consumer : (time:float -> site:int -> kind -> unit) option;
  capacity : int;
  mutable times : Float.Array.t;
  mutable sites : int array;
  mutable kinds : kind array;
  mutable length : int;
  mutable truncated : bool;
}

let create ?(enabled = false) ?(capacity = 1_000_000) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  {
    enabled;
    consumer = None;
    capacity;
    times = Float.Array.create 0;
    sites = [||];
    kinds = [||];
    length = 0;
    truncated = false;
  }

let stream f = { (create ~enabled:true ~capacity:0 ()) with consumer = Some f }
let enabled t = t.enabled

let grow t =
  let size = Array.length t.kinds in
  let want = Stdlib.max 256 (2 * size) in
  let want = if want > t.capacity then t.capacity + 1 else want in
  let times = Float.Array.create want in
  Float.Array.blit t.times 0 times 0 t.length;
  let sites = Array.make want 0 in
  Array.blit t.sites 0 sites 0 t.length;
  let kinds = Array.make want Enter_cs in
  Array.blit t.kinds 0 kinds 0 t.length;
  t.times <- times;
  t.sites <- sites;
  t.kinds <- kinds

(* Keep the newest half: one O(capacity) blit per [capacity / 2] records
   amortizes the trim. Vacated kind slots are reset so the GC can reclaim
   the discarded payloads. *)
let trim t =
  let keep = t.capacity / 2 in
  let from = t.length - keep in
  Float.Array.blit t.times from t.times 0 keep;
  Array.blit t.sites from t.sites 0 keep;
  Array.blit t.kinds from t.kinds 0 keep;
  Array.fill t.kinds keep (t.length - keep) Enter_cs;
  t.length <- keep;
  t.truncated <- true

let record t ~time ~site kind =
  if t.enabled then
    match t.consumer with
    | Some f -> f ~time ~site kind
    | None ->
      if t.length = Array.length t.kinds then grow t;
      let i = t.length in
      Float.Array.set t.times i time;
      t.sites.(i) <- site;
      t.kinds.(i) <- kind;
      t.length <- i + 1;
      if t.length > t.capacity then trim t

let iter f t =
  for i = 0 to t.length - 1 do
    f ~time:(Float.Array.get t.times i) ~site:t.sites.(i) t.kinds.(i)
  done

let entries t =
  List.init t.length (fun i ->
      { time = Float.Array.get t.times i; site = t.sites.(i); kind = t.kinds.(i) })

let length t = t.length
let truncated t = t.truncated

let clear t =
  Array.fill t.kinds 0 t.length Enter_cs;
  t.length <- 0;
  t.truncated <- false

module Render = struct
  type t = { buf : Buffer.t; ppf : Format.formatter }

  let create () =
    let buf = Buffer.create 64 in
    { buf; ppf = Format.formatter_of_buffer buf }

  (* Flushing resets the formatter to the state [Format.asprintf] starts
     from, so the text is the same bytes without a fresh buffer and
     formatter per call. *)
  let text t pp x =
    pp t.ppf x;
    Format.pp_print_flush t.ppf ();
    let s = Buffer.contents t.buf in
    Buffer.clear t.buf;
    s
end

let pp_kind ppf = function
  | Send { dst; msg } -> Format.fprintf ppf "send -> %d : %s" dst msg
  | Receive { src; msg } -> Format.fprintf ppf "recv <- %d : %s" src msg
  | Enter_cs -> Format.pp_print_string ppf "ENTER CS"
  | Exit_cs -> Format.pp_print_string ppf "EXIT CS"
  | Timer tag -> Format.fprintf ppf "timer %d" tag
  | Crash -> Format.pp_print_string ppf "CRASH"
  | Recover -> Format.pp_print_string ppf "RECOVER"
  | Drop { dst; reason } -> Format.fprintf ppf "DROP -> %d (%s)" dst reason
  | Duplicate { dst } -> Format.fprintf ppf "DUP -> %d" dst
  | Partition { heal } ->
    Format.pp_print_string ppf
      (if heal then "PARTITION HEAL" else "PARTITION SPLIT")
  | Suspect s -> Format.fprintf ppf "suspect %d" s
  | Trust s -> Format.fprintf ppf "trust %d" s
  | Note s -> Format.pp_print_string ppf s
  | Request -> Format.pp_print_string ppf "REQUEST"
  | Adopt_quorum q ->
    Format.fprintf ppf "adopt quorum {%s}"
      (String.concat "," (List.map string_of_int q))
  | Acquire { arbiter } -> Format.fprintf ppf "acquire perm(%d)" arbiter
  | Cede { arbiter } -> Format.fprintf ppf "cede perm(%d)" arbiter
  | Forward { arbiter; to_ } ->
    Format.fprintf ppf "forward perm(%d) -> %d" arbiter to_
  | Grant { to_ } -> Format.fprintf ppf "grant perm -> %d" to_

let pp_entry ppf e =
  Format.fprintf ppf "[%10.4f] site %3d  %a" e.time e.site pp_kind e.kind

let dump ppf t =
  iter
    (fun ~time ~site kind ->
      Format.fprintf ppf "%a@." pp_entry { time; site; kind })
    t

let timeline ?(width = 72) t ~n =
  let t_max = ref 1e-9 in
  iter (fun ~time ~site:_ _ -> t_max := Float.max !t_max time) t;
  let t_max = !t_max in
  let col time =
    Stdlib.min (width - 1)
      (int_of_float (time /. t_max *. float_of_int (width - 1)))
  in
  let lanes = Array.init n (fun _ -> Bytes.make width '.') in
  let fill site a b ch =
    if site >= 0 && site < n then
      for c = col a to col b do
        Bytes.set lanes.(site) c ch
      done
  in
  (* CS intervals per site: pair Enter with the following Exit *)
  let open_at = Array.make n None in
  iter
    (fun ~time ~site kind ->
      match kind with
      | Enter_cs -> if site < n then open_at.(site) <- Some time
      | Exit_cs ->
        if site < n then begin
          (match open_at.(site) with
          | Some start -> fill site start time '#'
          | None -> ());
          open_at.(site) <- None
        end
      | Crash -> fill site time t_max 'X'
      | Send _ | Receive _ | Timer _ | Recover | Drop _ | Duplicate _
      | Partition _ | Suspect _ | Trust _ | Note _ | Request
      | Adopt_quorum _ | Acquire _ | Cede _ | Forward _ | Grant _ -> ())
    t;
  Array.iteri
    (fun site o ->
      match o with Some start -> fill site start t_max '#' | None -> ())
    open_at;
  let buf = Buffer.create ((n + 1) * (width + 16)) in
  Buffer.add_string buf (Printf.sprintf "t: 0.0 .. %.1f\n" t_max);
  Array.iteri
    (fun site lane ->
      Buffer.add_string buf
        (Printf.sprintf "site %3d |%s\n" site (Bytes.to_string lane)))
    lanes;
  Buffer.contents buf
