(* Deterministic seeded fault shim over any transport handle.

   Mirrors [Dmx_sim.Network]'s fault model — per-link loss, duplication,
   reorder (bounded holdback), delay-spike windows, partition schedules —
   but against real processes. The one divergence: the sim multiplies a
   sampled delay by a spike factor; a real transport has no sampled delay
   to scale, so a spike here holds frames for [extra] wall-clock seconds.

   Determinism: the fate of the k-th frame on directed link (src, dst) is
   a pure splitmix64 hash of (seed, salt, src, dst, k) — independent of
   wall-clock time and frame content — so two runs with the same seed
   make identical loss/duplication/reorder decisions even though real
   scheduling differs. Partition and spike windows are wall-clock
   intervals anchored at the cluster-wide workload epoch ([set_zero],
   distributed in the Workload frame), the closest a live run gets.

   Links touching the supervisor (either endpoint >= n) are exempt:
   chaos is for the protocol, not for the control plane that collects
   the evidence. *)

type partition = { from_t : float; until : float; groups : int list list }

type plan = {
  seed : int;
  n : int;
  loss : float;
  duplication : float;
  reorder : float;
  reorder_hold : int;
  delay_spikes : (float * float * float) list;
  partitions : partition list;
}

let no_faults =
  {
    seed = 0;
    n = 0;
    loss = 0.0;
    duplication = 0.0;
    reorder = 0.0;
    reorder_hold = 3;
    delay_spikes = [];
    partitions = [];
  }

let is_trivial p =
  p.loss = 0.0 && p.duplication = 0.0 && p.reorder = 0.0
  && p.delay_spikes = [] && p.partitions = []

let validate p =
  let prob what v =
    if not (v >= 0.0 && v < 1.0) then
      invalid_arg (Printf.sprintf "chaos: %s %g outside [0, 1)" what v)
  in
  prob "loss" p.loss;
  prob "duplication" p.duplication;
  prob "reorder" p.reorder;
  if p.reorder_hold < 1 then invalid_arg "chaos: reorder_hold < 1";
  List.iter
    (fun (f, u, extra) ->
      if u <= f then invalid_arg "chaos: empty delay-spike window";
      if extra <= 0.0 then invalid_arg "chaos: non-positive spike delay")
    p.delay_spikes;
  List.iter
    (fun { from_t; until; groups } ->
      if until <= from_t then invalid_arg "chaos: empty partition window";
      let seen = Hashtbl.create 8 in
      List.iter
        (List.iter (fun s ->
             if s < 0 || (p.n > 0 && s >= p.n) then
               invalid_arg (Printf.sprintf "chaos: partition site %d out of range" s);
             if Hashtbl.mem seen s then
               invalid_arg (Printf.sprintf "chaos: site %d in two partition groups" s);
             Hashtbl.replace seen s ()))
        groups)
    p.partitions

(* ---- pure per-frame fault decisions ---- *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let fold h v =
  mix64 (Int64.logxor h (Int64.mul (Int64.of_int v) 0x9e3779b97f4a7c15L))

(* 53 uniform bits in [0, 1) *)
let uniform h =
  Int64.to_float (Int64.logand h 0x1F_FFFF_FFFF_FFFFL) /. 9007199254740992.0

let draw plan ~salt ~src ~dst k =
  let h = mix64 (Int64.of_int (plan.seed + 0x5851f42d)) in
  let h = fold h salt in
  let h = fold h src in
  let h = fold h dst in
  let h = fold h k in
  uniform h

type decision = { lose : bool; duplicate : bool; reorder : bool }

let decision plan ~src ~dst k =
  {
    lose = draw plan ~salt:1 ~src ~dst k < plan.loss;
    duplicate = draw plan ~salt:2 ~src ~dst k < plan.duplication;
    reorder = draw plan ~salt:3 ~src ~dst k < plan.reorder;
  }

(* ---- time windows ---- *)

let group_of groups site =
  let rec go i = function
    | [] -> 0 (* implicit rest-group *)
    | g :: rest -> if List.mem site g then i else go (i + 1) rest
  in
  go 1 groups

let partitioned plan ~at ~src ~dst =
  List.exists
    (fun { from_t; until; groups } ->
      at >= from_t && at < until && group_of groups src <> group_of groups dst)
    plan.partitions

let spike_extra plan ~at =
  List.fold_left
    (fun acc (f, u, extra) -> if at >= f && at < u then acc +. extra else acc)
    0.0 plan.delay_spikes

(* ---- the shim ---- *)

type held = {
  h_dst : int;
  h_frame : Wire.frame;
  release_k : int;  (* flush when the link's send counter reaches this *)
  deadline : float;  (* ... or when the clock does, on an idle link *)
}

type t = {
  plan : plan;
  self : int;
  peers : int list;
  inner : Transport_sig.handle;
  lock : Mutex.t;
  counters : (int, int) Hashtbl.t;  (* dst -> frames offered on that link *)
  mutable zero : float option;  (* wall-clock anchor of window time 0 *)
  mutable delayed : (float * int * Wire.frame) list;  (* due, dst, frame *)
  mutable held : held list;
  lost : int Atomic.t;
  duplicated : int Atomic.t;
  reordered : int Atomic.t;
  delayed_n : int Atomic.t;
  dropped_partition : int Atomic.t;
}

let create plan ~self ~peers ~inner =
  validate plan;
  {
    plan;
    self;
    peers;
    inner;
    lock = Mutex.create ();
    counters = Hashtbl.create 8;
    zero = None;
    delayed = [];
    held = [];
    lost = Atomic.make 0;
    duplicated = Atomic.make 0;
    reordered = Atomic.make 0;
    delayed_n = Atomic.make 0;
    dropped_partition = Atomic.make 0;
  }

let set_zero t epoch =
  Mutex.lock t.lock;
  t.zero <- Some epoch;
  Mutex.unlock t.lock

(* window-relative time; negative (windows inactive) until the epoch is
   known *)
let rel_now t now = match t.zero with Some z -> now -. z | None -> -1.0

let exempt t dst = t.plan.n > 0 && (dst >= t.plan.n || t.self >= t.plan.n)

(* Flush every delayed frame that is due and every held frame whose link
   counter or deadline has passed. Called under [t.lock]. *)
let flush_due_locked t now =
  let due, still =
    List.partition (fun (d, _, _) -> now >= d) t.delayed
  in
  t.delayed <- still;
  let ready, kept =
    List.partition
      (fun h ->
        let k = try Hashtbl.find t.counters h.h_dst with Not_found -> 0 in
        k >= h.release_k || now >= h.deadline)
      t.held
  in
  t.held <- kept;
  List.iter (fun (_, dst, f) -> t.inner.send ~dst f) due;
  List.iter (fun h -> t.inner.send ~dst:h.h_dst h.h_frame) ready

let send_one_locked t now dst frame =
  if exempt t dst then t.inner.send ~dst frame
  else begin
    let k = try Hashtbl.find t.counters dst with Not_found -> 0 in
    Hashtbl.replace t.counters dst (k + 1);
    let at = rel_now t now in
    if partitioned t.plan ~at ~src:t.self ~dst then
      Atomic.incr t.dropped_partition
    else begin
      let d = decision t.plan ~src:t.self ~dst k in
      if d.lose then Atomic.incr t.lost
      else begin
        let extra = spike_extra t.plan ~at in
        let emit f =
          if extra > 0.0 then begin
            Atomic.incr t.delayed_n;
            t.delayed <- t.delayed @ [ (now +. extra, dst, f) ]
          end
          else t.inner.send ~dst f
        in
        if d.reorder then begin
          Atomic.incr t.reordered;
          t.held <-
            t.held
            @ [
                {
                  h_dst = dst;
                  h_frame = frame;
                  release_k = k + 1 + t.plan.reorder_hold;
                  deadline = now +. 0.25;
                };
              ]
        end
        else emit frame;
        if d.duplicate then begin
          Atomic.incr t.duplicated;
          emit frame
        end
      end
    end
  end

let send t ~dst frame =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  flush_due_locked t now;
  send_one_locked t now dst frame;
  Mutex.unlock t.lock

let poll t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  flush_due_locked t now;
  Mutex.unlock t.lock;
  t.inner.poll ()

let stats_alist t =
  List.filter
    (fun (_, v) -> v > 0)
    [
      ("chaos.lost", Atomic.get t.lost);
      ("chaos.duplicated", Atomic.get t.duplicated);
      ("chaos.reordered", Atomic.get t.reordered);
      ("chaos.delayed", Atomic.get t.delayed_n);
      ("chaos.partition_dropped", Atomic.get t.dropped_partition);
    ]

let register_obs ?labels reg t =
  let p name a = Dmx_obs.Registry.probe ?labels reg name (fun () -> Atomic.get a) in
  p "chaos.lost" t.lost;
  p "chaos.duplicated" t.duplicated;
  p "chaos.reordered" t.reordered;
  p "chaos.delayed" t.delayed_n;
  p "chaos.partition_dropped" t.dropped_partition

(* per-link decisions require per-destination sends, so broadcast fans
   out through the shim rather than the inner broadcast *)
let broadcast t frame =
  let now = Unix.gettimeofday () in
  Mutex.lock t.lock;
  flush_due_locked t now;
  List.iter (fun dst -> send_one_locked t now dst frame) t.peers;
  Mutex.unlock t.lock

let handle t =
  {
    Transport_sig.send = (fun ~dst frame -> send t ~dst frame);
    broadcast = (fun frame -> broadcast t frame);
    poll = (fun () -> poll t);
    stats = (fun () -> t.inner.stats ());
    close = (fun () -> t.inner.close ());
  }

(* ---- compact plan (de)serialization ----

   Travels inside the single-line DMX_SERVICE_SPEC environment trampoline,
   so: no spaces, no '='. Fields are ';'-separated; floats are hex
   (lossless); window bounds use '~' because hex floats contain '-'.

     loss:0x1.9...p-3;dup:0x1p-5;reorder:0;hold:3;seed:42;n:5;
     spike:0x1p-1~0x1.8p0~0x1p-2;part:0,1|2,3,4@0x1p0~0x1p1 *)

let plan_to_string p =
  let b = Buffer.create 64 in
  let sep () = if Buffer.length b > 0 then Buffer.add_char b ';' in
  let f fmt = Printf.ksprintf (fun s -> sep (); Buffer.add_string b s) fmt in
  f "seed:%d" p.seed;
  f "n:%d" p.n;
  f "hold:%d" p.reorder_hold;
  if p.loss > 0.0 then f "loss:%h" p.loss;
  if p.duplication > 0.0 then f "dup:%h" p.duplication;
  if p.reorder > 0.0 then f "reorder:%h" p.reorder;
  List.iter (fun (fr, u, e) -> f "spike:%h~%h~%h" fr u e) p.delay_spikes;
  List.iter
    (fun { from_t; until; groups } ->
      f "part:%s@%h~%h"
        (String.concat "|"
           (List.map
              (fun g -> String.concat "," (List.map string_of_int g))
              groups))
        from_t until)
    p.partitions;
  Buffer.contents b

let plan_of_string s =
  let fail what = invalid_arg (Printf.sprintf "chaos plan: bad %s" what) in
  let float_of x =
    match float_of_string_opt x with Some v -> v | None -> fail "float"
  in
  let int_of x =
    match int_of_string_opt x with Some v -> v | None -> fail "int"
  in
  let fields =
    String.split_on_char ';' s |> List.filter (fun x -> x <> "")
  in
  List.fold_left
    (fun p field ->
      match String.index_opt field ':' with
      | None -> fail "field"
      | Some i ->
        let key = String.sub field 0 i in
        let v = String.sub field (i + 1) (String.length field - i - 1) in
        (match key with
        | "seed" -> { p with seed = int_of v }
        | "n" -> { p with n = int_of v }
        | "hold" -> { p with reorder_hold = int_of v }
        | "loss" -> { p with loss = float_of v }
        | "dup" -> { p with duplication = float_of v }
        | "reorder" -> { p with reorder = float_of v }
        | "spike" -> (
          match String.split_on_char '~' v with
          | [ f; u; e ] ->
            {
              p with
              delay_spikes =
                p.delay_spikes @ [ (float_of f, float_of u, float_of e) ];
            }
          | _ -> fail "spike")
        | "part" -> (
          match String.index_opt v '@' with
          | None -> fail "partition"
          | Some j ->
            let gs = String.sub v 0 j in
            let window = String.sub v (j + 1) (String.length v - j - 1) in
            let from_t, until =
              match String.split_on_char '~' window with
              | [ f; u ] -> (float_of f, float_of u)
              | _ -> fail "partition window"
            in
            let groups =
              String.split_on_char '|' gs
              |> List.filter (fun g -> g <> "")
              |> List.map (fun g ->
                     String.split_on_char ',' g
                     |> List.filter (fun x -> x <> "")
                     |> List.map int_of)
            in
            { p with partitions = p.partitions @ [ { from_t; until; groups } ] })
        | _ -> fail ("key " ^ key)))
    no_faults fields
