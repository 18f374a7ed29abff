type 'a event = { time : float; seq : int; payload : 'a }

(* A binary min-heap on (time, seq) in struct-of-arrays form. Heap
   position [i] holds [times.{i}], [seqs.(i)] and [slots.(i)], the index
   of the event's payload cell in [payloads]. Sifting moves only unboxed
   floats and ints, so it runs without a write barrier or a comparator
   call. A payload is written into its cell once, by [schedule], and the
   cell is cleared when [pop] (which [next] wraps) or [drop_if] removes
   the event, so the queue never keeps a removed payload reachable.

   [slots] is a permutation of the cell indices: positions [0, size)
   name the cells of pending events and positions [size, capacity) the
   free cells, so [slots.(size)] is the cell the next [schedule] fills. *)
type 'a t = {
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : 'a option array;
  mutable size : int;
  mutable next_seq : int;
  mutable clock : float;
  mutable pops : int;
  mutable peak : int;  (* high-water heap length, for the obs registry *)
}

let create () =
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    payloads = [||];
    size = 0;
    next_seq = 0;
    clock = 0.0;
    pops = 0;
    peak = 0;
  }

(* Double every array; the new cells [old_cap, cap) are free. *)
let grow t =
  let old_cap = Array.length t.slots in
  let cap = if old_cap = 0 then 16 else 2 * old_cap in
  let times = Float.Array.create cap in
  Float.Array.blit t.times 0 times 0 t.size;
  t.times <- times;
  t.seqs <- Array.append t.seqs (Array.make (cap - old_cap) 0);
  t.slots <-
    Array.append t.slots (Array.init (cap - old_cap) (fun k -> old_cap + k));
  t.payloads <- Array.append t.payloads (Array.make (cap - old_cap) None)

(* The entry at position [i] is out of place: lift it past every later
   ancestor. The loop carries it in locals and moves the ancestors down
   through the hole. *)
let sift_up t i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = Float.Array.unsafe_get times i
  and seq = Array.unsafe_get seqs i
  and slot = Array.unsafe_get slots i in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) lsr 1 in
    let pt = Float.Array.unsafe_get times p in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
      Float.Array.unsafe_set times !i pt;
      Array.unsafe_set seqs !i (Array.unsafe_get seqs p);
      Array.unsafe_set slots !i (Array.unsafe_get slots p);
      i := p
    end
    else moving := false
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* The entry at position [i] is out of place: sink it past every earlier
   descendant among positions [0, size). *)
let sift_down t i =
  let times = t.times and seqs = t.seqs and slots = t.slots and n = t.size in
  let time = Float.Array.unsafe_get times i
  and seq = Array.unsafe_get seqs i
  and slot = Array.unsafe_get slots i in
  let i = ref i and moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= n then moving := false
    else begin
      let r = l + 1 in
      let lt = Float.Array.unsafe_get times l in
      let c =
        if r < n then begin
          let rt = Float.Array.unsafe_get times r in
          let rs = Array.unsafe_get seqs r and ls = Array.unsafe_get seqs l in
          if rt < lt || (rt = lt && rs < ls) then r else l
        end
        else l
      in
      let ct = Float.Array.unsafe_get times c
      and cs = Array.unsafe_get seqs c in
      if ct < time || (ct = time && cs < seq) then begin
        Float.Array.unsafe_set times !i ct;
        Array.unsafe_set seqs !i cs;
        Array.unsafe_set slots !i (Array.unsafe_get slots c);
        i := c
      end
      else moving := false
    end
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let schedule t ~time payload =
  if not (Float.is_finite time) then
    invalid_arg "Event_queue.schedule: non-finite time";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: time %g is before now %g" time
         t.clock);
  if t.size = Array.length t.slots then grow t;
  let i = t.size in
  t.payloads.(t.slots.(i)) <- Some payload;
  Float.Array.set t.times i time;
  t.seqs.(i) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i;
  if t.size > t.peak then t.peak <- t.size

let pop t =
  if t.size = 0 then invalid_arg "Event_queue.pop: empty queue";
  let slot = t.slots.(0) in
  match t.payloads.(slot) with
  | None -> assert false (* every heap position names a filled cell *)
  | Some payload ->
    t.clock <- Float.Array.get t.times 0;
    t.pops <- t.pops + 1;
    t.payloads.(slot) <- None;
    (* the last entry fills the root's hole and sinks; the freed cell
       goes to the first position past the end *)
    let last = t.size - 1 in
    t.size <- last;
    Float.Array.set t.times 0 (Float.Array.get t.times last);
    t.seqs.(0) <- t.seqs.(last);
    t.slots.(0) <- t.slots.(last);
    t.slots.(last) <- slot;
    sift_down t 0;
    payload

let next t =
  if t.size = 0 then None
  else
    let seq = t.seqs.(0) in
    let payload = pop t in
    Some { time = t.clock; seq; payload }

let peek_time t = if t.size = 0 then None else Some (Float.Array.get t.times 0)
let is_empty t = t.size = 0
let length t = t.size
let now t = t.clock
let pushes t = t.next_seq
let pops t = t.pops
let peak t = t.peak

let drop_if t p =
  (* Compact the survivors to the front, swapping the dropped entries'
     cells behind them, then restore heap order bottom-up (Floyd). The
     order is total, so the survivors pop exactly as they would have
     without the drop. *)
  let before = t.size in
  let j = ref 0 in
  for i = 0 to before - 1 do
    let slot = t.slots.(i) in
    let drop =
      match t.payloads.(slot) with
      | Some payload -> p payload
      | None -> assert false
    in
    if drop then t.payloads.(slot) <- None
    else begin
      if !j <> i then begin
        Float.Array.set t.times !j (Float.Array.get t.times i);
        t.seqs.(!j) <- t.seqs.(i);
        t.slots.(i) <- t.slots.(!j);
        t.slots.(!j) <- slot
      end;
      incr j
    end
  done;
  t.size <- !j;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t i
  done;
  before - t.size
