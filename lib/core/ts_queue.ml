module Ts = Dmx_sim.Timestamp

(* Entry [i < len] is the timestamp [(sns.(i), sites.(i))]; entries are in
   ascending order (highest priority first). The state is canonical, a
   function of the entries alone: the capacity is [capacity len] and every
   cell past [len] holds 0, so two queues with the same entries are [=]
   (the model checker compares protocol states structurally), and an
   emptied queue is [=] to [create ()]. *)
type t = { mutable len : int; mutable sns : int array; mutable sites : int array }

let min_capacity = 8

let capacity len =
  if len = 0 then 0
  else
    let rec up c = if c >= len then c else up (2 * c) in
    up min_capacity

let create () = { len = 0; sns = [||]; sites = [||] }
let copy t = { len = t.len; sns = Array.copy t.sns; sites = Array.copy t.sites }
let is_empty t = t.len = 0
let length t = t.len

(* Reallocate to [capacity len'] cells when that differs from the current
   size, keeping the first [min t.len len'] entries. *)
let fit t len' =
  let cap = capacity len' in
  if cap <> Array.length t.sns then begin
    let sns = Array.make cap 0 and sites = Array.make cap 0 in
    for i = 0 to min t.len len' - 1 do
      Array.unsafe_set sns i (Array.unsafe_get t.sns i);
      Array.unsafe_set sites i (Array.unsafe_get t.sites i)
    done;
    t.sns <- sns;
    t.sites <- sites
  end

let index_of_site t site =
  let rec go i = if i >= t.len then -1 else if t.sites.(i) = site then i else go (i + 1) in
  go 0

(* Close the gap at [j] by shifting the later entries down; the freed
   last cell is reset. The capacity is left for the caller to [fit]. *)
let delete t j =
  let last = t.len - 1 in
  for i = j to last - 1 do
    Array.unsafe_set t.sns i (Array.unsafe_get t.sns (i + 1));
    Array.unsafe_set t.sites i (Array.unsafe_get t.sites (i + 1))
  done;
  t.sns.(last) <- 0;
  t.sites.(last) <- 0;
  t.len <- last

let remove_at t j =
  delete t j;
  fit t t.len

let insert t (ts : Ts.t) =
  (* One entry per site, keeping the one with the larger sequence number: a
     site's re-issued request supersedes its old one, and a stale re-enqueue
     of an old request (e.g. an out-of-order yield resolving after the site
     already re-requested) must never clobber the newer entry. *)
  let sn = ts.sn and site = ts.site in
  let j = index_of_site t site in
  if j < 0 || t.sns.(j) < sn then begin
    if j >= 0 then delete t j;
    fit t (t.len + 1);
    (* the first entry that ranks behind [ts] *)
    let rec slot i =
      if i >= t.len then i
      else
        let s = t.sns.(i) in
        if s > sn || (s = sn && t.sites.(i) > site) then i else slot (i + 1)
    in
    let p = slot 0 in
    for i = t.len downto p + 1 do
      Array.unsafe_set t.sns i (Array.unsafe_get t.sns (i - 1));
      Array.unsafe_set t.sites i (Array.unsafe_get t.sites (i - 1))
    done;
    t.sns.(p) <- sn;
    t.sites.(p) <- site;
    t.len <- t.len + 1
  end

let entry t i = { Ts.sn = t.sns.(i); site = t.sites.(i) }
let head t = if t.len = 0 then None else Some (entry t 0)

let pop t =
  if t.len = 0 then None
  else begin
    let e = entry t 0 in
    remove_at t 0;
    Some e
  end

let remove_site t site =
  let j = index_of_site t site in
  j >= 0
  && begin
       remove_at t j;
       true
     end

let remove_ts t (ts : Ts.t) =
  let j = index_of_site t ts.site in
  j >= 0 && t.sns.(j) = ts.sn
  && begin
       remove_at t j;
       true
     end

let mem_site t site = index_of_site t site >= 0

let find_site t site =
  let j = index_of_site t site in
  if j < 0 then None else Some (entry t j)

let to_list t =
  let rec go i acc = if i < 0 then acc else go (i - 1) (entry t i :: acc) in
  go (t.len - 1) []

let clear t =
  t.len <- 0;
  t.sns <- [||];
  t.sites <- [||]
