type delay_model =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Shifted_exponential of { base : float; extra_mean : float }

let mean_delay = function
  | Constant d -> d
  | Uniform { lo; hi } -> (lo +. hi) /. 2.0
  | Exponential { mean } -> mean
  | Shifted_exponential { base; extra_mean } -> base +. extra_mean

let pp_delay_model ppf = function
  | Constant d -> Format.fprintf ppf "constant(%g)" d
  | Uniform { lo; hi } -> Format.fprintf ppf "uniform(%g,%g)" lo hi
  | Exponential { mean } -> Format.fprintf ppf "exponential(mean=%g)" mean
  | Shifted_exponential { base; extra_mean } ->
    Format.fprintf ppf "shifted-exp(base=%g,extra=%g)" base extra_mean

(* ---- the fault model: plan, validation, decision, windows, text ---- *)

type partition = { from_t : float; until : float; groups : int list list }

type fault_plan = {
  loss : float;
  duplication : float;
  reorder : float;
  reorder_hold : int;
  partitions : partition list;
  delay_spikes : (float * float * float) list;
}

let no_faults =
  {
    loss = 0.0;
    duplication = 0.0;
    reorder = 0.0;
    reorder_hold = 3;
    partitions = [];
    delay_spikes = [];
  }

let is_trivial f =
  f.loss = 0.0 && f.duplication = 0.0 && f.reorder = 0.0
  && f.partitions = [] && f.delay_spikes = []

(* Every comparison is written so that NaN fails it. *)
let validate ~n f =
  let bad fmt = Printf.ksprintf invalid_arg ("fault plan: " ^^ fmt) in
  let prob what v =
    if not (v >= 0.0 && v < 1.0) then bad "%s %g not in [0,1)" what v
  in
  prob "loss" f.loss;
  prob "duplication" f.duplication;
  prob "reorder" f.reorder;
  if f.reorder_hold < 1 then bad "reorder hold %d < 1" f.reorder_hold;
  List.iter
    (fun p ->
      if not (p.from_t >= 0.0 && p.from_t < p.until) then
        bad "partition window [%g,%g) is empty" p.from_t p.until;
      if p.groups = [] || List.mem [] p.groups then
        bad "partition has an empty group";
      let seen = Hashtbl.create 16 in
      List.iter
        (List.iter (fun s ->
             if s < 0 || s >= n then bad "partition site %d out of range" s;
             if Hashtbl.mem seen s then bad "partition groups overlap at site %d" s;
             Hashtbl.replace seen s ()))
        p.groups)
    f.partitions;
  List.iter
    (fun (from_t, until, extra) ->
      if not (from_t >= 0.0 && from_t < until && Float.is_finite until) then
        bad "delay spike window [%g,%g) is empty or unbounded" from_t until;
      if not (extra > 0.0 && Float.is_finite extra) then
        bad "delay spike extra %g must be positive and finite" extra)
    f.delay_spikes

type fate = { lose : bool; duplicate : bool; reorder : bool }

(* Preallocated, indexed by lose + 2 duplicate + 4 reorder, so a decision
   never allocates. *)
let fates =
  Array.init 8 (fun i ->
      { lose = i land 1 <> 0; duplicate = i land 2 <> 0; reorder = i land 4 <> 0 })

let decide f draw =
  if f.loss > 0.0 && draw 1 < f.loss then fates.(1)
  else
    let dup = if f.duplication > 0.0 && draw 2 < f.duplication then 2 else 0 in
    let reorder = if f.reorder > 0.0 && draw 3 < f.reorder then 4 else 0 in
    fates.(dup lor reorder)

(* Unlisted sites fall into one implicit rest-group (0). *)
let group_of groups site =
  let rec go i = function
    | [] -> 0
    | g :: rest -> if List.mem site g then i else go (i + 1) rest
  in
  go 1 groups

let partitioned f ~src ~dst ~at =
  List.exists
    (fun p ->
      at >= p.from_t && at < p.until
      && group_of p.groups src <> group_of p.groups dst)
    f.partitions

let spike_extra f ~at =
  List.fold_left
    (fun acc (from_t, until, extra) ->
      if at >= from_t && at < until then acc +. extra else acc)
    0.0 f.delay_spikes

(* %h round-trips every finite float exactly; infinities need a spelling
   float_of_string accepts. *)
let hex_float x =
  if x = infinity then "inf"
  else if x = neg_infinity then "-inf"
  else Printf.sprintf "%h" x

let ilist xs = String.concat "," (List.map string_of_int xs)

let fault_lines f =
  List.concat
    [
      (if f.loss <> 0.0 then [ "loss " ^ hex_float f.loss ] else []);
      (if f.duplication <> 0.0 then [ "dup " ^ hex_float f.duplication ] else []);
      (if f.reorder <> 0.0 then [ "reorder " ^ hex_float f.reorder ] else []);
      (if f.reorder_hold <> no_faults.reorder_hold then
         [ "hold " ^ string_of_int f.reorder_hold ]
       else []);
      List.map
        (fun p ->
          String.concat " "
            [
              "partition"; hex_float p.from_t; hex_float p.until;
              String.concat "|" (List.map ilist p.groups);
            ])
        f.partitions;
      List.map
        (fun (from_t, until, extra) ->
          String.concat " "
            [ "spike"; hex_float from_t; hex_float until; hex_float extra ])
        f.delay_spikes;
    ]

let add_fault_line f words =
  let fail fmt = Printf.ksprintf failwith fmt in
  let num s =
    match float_of_string_opt s with Some v -> v | None -> fail "bad float %S" s
  in
  let int s =
    match int_of_string_opt s with Some v -> v | None -> fail "bad int %S" s
  in
  let group g = List.map int (String.split_on_char ',' g) in
  try
    match words with
    | [ "loss"; v ] -> Some (Ok { f with loss = num v })
    | [ "dup"; v ] -> Some (Ok { f with duplication = num v })
    | [ "reorder"; v ] -> Some (Ok { f with reorder = num v })
    | [ "hold"; v ] -> Some (Ok { f with reorder_hold = int v })
    | [ "partition"; from_t; until; groups ] ->
      let p =
        {
          from_t = num from_t;
          until = num until;
          groups = List.map group (String.split_on_char '|' groups);
        }
      in
      Some (Ok { f with partitions = f.partitions @ [ p ] })
    | [ "spike"; from_t; until; extra ] ->
      let s = (num from_t, num until, num extra) in
      Some (Ok { f with delay_spikes = f.delay_spikes @ [ s ] })
    | _ -> None
  with Failure e -> Some (Error e)

let faults_of_lines ~n lines =
  let rec go f = function
    | [] -> (
      match validate ~n f with
      | () -> Ok f
      | exception Invalid_argument e -> Error e)
    | l :: rest -> (
      match add_fault_line f (String.split_on_char ' ' l) with
      | Some (Ok f) -> go f rest
      | Some (Error _ as e) -> e
      | None -> Error (Printf.sprintf "bad fault line %S" l))
  in
  go no_faults lines

type drop_reason = [ `Down | `Partitioned | `Faulty ]
type verdict = Delivered | Duplicated | Lost of drop_reason

(* The FIFO watermarks: the latest delivery time handed out per directed
   channel, keyed by [src * n + dst]. An open-addressing table with linear
   probing over a key array and an unboxed value array, hashed by
   {!Int_hash.mix}, so a lookup is a multiply and a few int compares and
   a store writes a float in place.
   Slots are created on a channel's first send, so memory follows the
   touched links, never N². A missing key reads as 0.0. *)
module Marks = struct
  type t = {
    mutable keys : int array;  (* [-1] marks an empty slot *)
    mutable vals : Float.Array.t;
    mutable count : int;
    mutable bits : int;  (* capacity is [1 lsl bits] *)
  }

  let create () =
    let bits = 6 in
    {
      keys = Array.make (1 lsl bits) (-1);
      vals = Float.Array.make (1 lsl bits) 0.0;
      count = 0;
      bits;
    }

  (* The top [bits] bits of the product. Indexing by the low bits of the
     folded {!Int_hash.hash} instead clusters the probes: a fault-free
     transmit at n = 81 measured about half again slower. *)
  let home t key = Int_hash.mix key lsr (63 - t.bits)

  (* The slot holding [key], or the empty slot where it belongs. The load
     factor stays at or below 1/2, so the probe ends. *)
  let slot t key =
    let keys = t.keys and mask = (1 lsl t.bits) - 1 in
    let i = ref (home t key) in
    while
      let k = Array.unsafe_get keys !i in
      k <> key && k <> -1
    do
      i := (!i + 1) land mask
    done;
    !i

  let rec set t ~key v =
    let i = slot t key in
    if t.keys.(i) <> -1 then Float.Array.set t.vals i v
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      rebuild t ~bits:(t.bits + 1) ~keep:(fun _ -> true);
      set t ~key v
    end
    else begin
      t.keys.(i) <- key;
      Float.Array.set t.vals i v;
      t.count <- t.count + 1
    end

  (* Reinsert the kept entries into a fresh table of [1 lsl bits] slots. *)
  and rebuild t ~bits ~keep =
    let keys = t.keys and vals = t.vals in
    t.keys <- Array.make (1 lsl bits) (-1);
    t.vals <- Float.Array.make (1 lsl bits) 0.0;
    t.count <- 0;
    t.bits <- bits;
    Array.iteri
      (fun i k -> if k <> -1 && keep k then set t ~key:k (Float.Array.get vals i))
      keys

  let filter t keep = rebuild t ~bits:t.bits ~keep
end

type t = {
  n : int;
  delay : delay_model;
  rng : Rng.t;
  faults : fault_plan;
  faulty : bool;  (* not [is_trivial faults]: the fault checks are skipped *)
  (* The uniforms [decide] asks for, read in call order off a dedicated
     fault generator, so enabling faults does not perturb the delay
     stream. Built once, so a send allocates no closure. *)
  draw : int -> float;
  up : bool array;
  marks : Marks.t;
  arrivals : Float.Array.t;  (* the copies of the last delivering transmit *)
}

let create ?(faults = no_faults) ?fault_rng ~n ~delay ~rng () =
  if n <= 0 then invalid_arg "Network.create: n must be positive";
  validate ~n faults;
  if faults.reorder > 0.0 then
    invalid_arg "Network.create: channels are FIFO; reorder must be 0";
  let fault_rng =
    match fault_rng with Some r -> r | None -> Rng.create 0x5eed_fa17
  in
  {
    n;
    delay;
    rng;
    faults;
    faulty = not (is_trivial faults);
    draw = (fun _ -> Rng.float fault_rng 1.0);
    up = Array.make n true;
    marks = Marks.create ();
    arrivals = Float.Array.make 2 0.0;
  }

let n t = t.n
let fault_plan t = t.faults

let sample t =
  match t.delay with
  | Constant d -> d
  | Uniform { lo; hi } -> Rng.uniform t.rng ~lo ~hi
  | Exponential { mean } -> Rng.exponential t.rng ~mean
  | Shifted_exponential { base; extra_mean } ->
    base +. Rng.exponential t.rng ~mean:extra_mean

let check_site t i name =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Network.%s: site %d out of range" name i)

let partition_edges t =
  List.concat_map
    (fun p ->
      (p.from_t, false)
      :: (if Float.is_finite p.until then [ (p.until, true) ] else []))
    t.faults.partitions

(* [Float.max] (a NaN wins; +0.0 beats -0.0) written out, so the
   compiler keeps it unboxed, with the usual case decided by the first
   comparison. *)
let[@inline] fmax (x : float) (y : float) =
  if x > y then x
  else if y > x then y
  else if x <> x then x
  else if y <> y then y
  else if Float.sign_bit x then y
  else x

(* Hand out copy [copy]'s delivery time and raise the channel's watermark
   to it: [max (now + delay + extra) mark], where a channel not yet sent
   on has mark 0.0, so a negative delay never delivers before time 0 and
   a NaN delay reaches the event queue's check. The slot is looked up
   once and written in place. *)
let deliver_one t ~key ~now ~extra copy =
  let m = t.marks in
  let i = Marks.slot m key in
  let fresh = Array.unsafe_get m.keys i = -1 in
  let mark = if fresh then 0.0 else Float.Array.get m.vals i in
  let at = fmax (now +. sample t +. extra) mark in
  if fresh then Marks.set m ~key at else Float.Array.set m.vals i at;
  Float.Array.set t.arrivals copy at

let transmit t ~src ~dst ~now =
  check_site t src "transmit";
  check_site t dst "transmit";
  if not (t.up.(src) && t.up.(dst)) then Lost `Down
  else if not t.faulty then begin
    deliver_one t ~key:((src * t.n) + dst) ~now ~extra:0.0 0;
    Delivered
  end
  else if partitioned t.faults ~src ~dst ~at:now then Lost `Partitioned
  else
    let fate = decide t.faults t.draw in
    if fate.lose then Lost `Faulty
    else begin
      let key = (src * t.n) + dst in
      let extra = spike_extra t.faults ~at:now in
      deliver_one t ~key ~now ~extra 0;
      if fate.duplicate then begin
        deliver_one t ~key ~now ~extra 1;
        Duplicated
      end
      else Delivered
    end

let arrival t copy = Float.Array.get t.arrivals copy

let delivery_time t ~src ~dst ~now =
  match transmit t ~src ~dst ~now with
  | Delivered | Duplicated -> Some (arrival t 0)
  | Lost _ -> None

let crash t i =
  check_site t i "crash";
  t.up.(i) <- false

let recover t i =
  check_site t i "recover";
  t.up.(i) <- true;
  (* Channels restart empty: reset FIFO watermarks touching this site. *)
  Marks.filter t.marks (fun key -> key / t.n <> i && key mod t.n <> i)

let is_up t i =
  check_site t i "is_up";
  t.up.(i)

let up_sites t =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (if t.up.(i) then i :: acc else acc) in
  loop (t.n - 1) []
