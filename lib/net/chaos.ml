(* Deterministic seeded fault shim over any transport handle.

   Applies [Dmx_sim.Network]'s fault plan to real frames: the plan, its
   validation, the per-frame decision and the partition and spike windows
   all live there. This module keeps only the mechanics: per-link frame
   counters, the holdback of reordered frames, frames delayed by a spike,
   and the counters.

   Determinism: the uniforms behind the fate of the k-th frame on directed
   link (src, dst) are a pure splitmix64 hash of (seed, salt, src, dst, k)
   — independent of wall-clock time and frame content — so two runs with
   the same seed make identical loss/duplication/reorder decisions even
   though real scheduling differs. Partition and spike windows are
   wall-clock intervals anchored at the cluster-wide workload epoch
   ([set_zero], distributed in the Workload frame), the closest a live run
   gets.

   Links touching the supervisor (either endpoint >= n) are exempt:
   chaos is for the protocol, not for the control plane that collects
   the evidence. *)

module Net = Dmx_sim.Network

(* ---- pure per-frame uniforms ---- *)

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

let draw ~seed ~src ~dst k salt =
  let h = mix64 (Int64.of_int (seed + 0x5851f42d)) in
  let h = fold h salt in
  let h = fold h src in
  let h = fold h dst in
  let h = fold h k in
  uniform h

let decision plan ~seed ~src ~dst k = Net.decide plan (draw ~seed ~src ~dst k)

(* ---- the shim ---- *)

type held = {
  h_dst : int;
  h_frame : Wire.frame;
  release_k : int;  (* flush when the link's send counter reaches this *)
  deadline : float;  (* ... or when the clock does, on an idle link *)
}

type t = {
  plan : Net.fault_plan;
  seed : int;
  n : int;
  self : int;
  peers : int list;
  inner : Transport_sig.handle;
  counters : (int, int) Hashtbl.t;  (* dst -> frames offered on that link *)
  mutable zero : float option;  (* wall-clock anchor of window time 0 *)
  mutable delayed : (float * int * Wire.frame) list;  (* due, dst, frame *)
  mutable held : held list;
  (* injected-fault counters, read by registry probes from the scrape
     thread *)
  lost : int Atomic.t;
  duplicated : int Atomic.t;
  reordered : int Atomic.t;
  delayed_n : int Atomic.t;
  dropped_partition : int Atomic.t;
}

let create plan ~seed ~n ~self ~peers ~inner =
  Net.validate ~n plan;
  {
    plan;
    seed;
    n;
    self;
    peers;
    inner;
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

let set_zero t epoch = t.zero <- Some epoch

(* window-relative time; negative (windows inactive) until the epoch is
   known *)
let rel_now t now = match t.zero with Some z -> now -. z | None -> -1.0

let exempt t dst = dst >= t.n || t.self >= t.n

(* Flush every delayed frame that is due and every held frame whose link
   counter or deadline has passed. *)
let flush_due t now =
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

let send_one t now dst frame =
  if exempt t dst then t.inner.send ~dst frame
  else begin
    let k = try Hashtbl.find t.counters dst with Not_found -> 0 in
    Hashtbl.replace t.counters dst (k + 1);
    let at = rel_now t now in
    if Net.partitioned t.plan ~src:t.self ~dst ~at then
      Atomic.incr t.dropped_partition
    else begin
      let d = decision t.plan ~seed:t.seed ~src:t.self ~dst k in
      if d.lose then Atomic.incr t.lost
      else begin
        let extra = Net.spike_extra t.plan ~at in
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

let send_to t dsts frame =
  let now = Unix.gettimeofday () in
  flush_due t now;
  List.iter (fun dst -> send_one t now dst frame) dsts

let send t ~dst frame = send_to t [ dst ] frame

let poll t =
  flush_due t (Unix.gettimeofday ());
  t.inner.poll ()

let counters t =
  [
    ("chaos.lost", t.lost);
    ("chaos.duplicated", t.duplicated);
    ("chaos.reordered", t.reordered);
    ("chaos.delayed", t.delayed_n);
    ("chaos.partition_dropped", t.dropped_partition);
  ]

let stats_alist t =
  List.filter_map
    (fun (name, a) -> match Atomic.get a with 0 -> None | v -> Some (name, v))
    (counters t)

let register_obs ?labels reg t =
  List.iter
    (fun (name, a) ->
      Dmx_obs.Registry.probe ?labels reg name (fun () -> Atomic.get a))
    (counters t)

(* per-link decisions require per-destination sends, so broadcast fans
   out through the shim rather than the inner broadcast *)
let broadcast t frame = send_to t t.peers frame

let handle t =
  {
    Transport_sig.send = (fun ~dst frame -> send t ~dst frame);
    broadcast = (fun frame -> broadcast t frame);
    poll = (fun () -> poll t);
    stats = (fun () -> t.inner.stats ());
    close = (fun () -> t.inner.close ());
  }
