(* The arbiter's priority queue of request timestamps. *)

module Ts = Dmx_sim.Timestamp
module Q = Dmx_core.Ts_queue

let ts sn site = { Ts.sn; site }

(* The sorted-list queue the array queue replaced, kept as the reference
   the property below checks against. *)
module Ref = struct
  type t = { mutable entries : Ts.t list }

  let create () = { entries = [] }
  let is_empty t = t.entries = []
  let length t = List.length t.entries

  let insert t ts =
    let newer_exists =
      List.exists
        (fun (e : Ts.t) -> e.site = ts.Ts.site && e.sn >= ts.Ts.sn)
        t.entries
    in
    if not newer_exists then begin
      let without =
        List.filter (fun (e : Ts.t) -> e.site <> ts.Ts.site) t.entries
      in
      let rec ins = function
        | [] -> [ ts ]
        | e :: rest as l -> if Ts.compare ts e < 0 then ts :: l else e :: ins rest
      in
      t.entries <- ins without
    end

  let head t = match t.entries with [] -> None | e :: _ -> Some e

  let pop t =
    match t.entries with
    | [] -> None
    | e :: rest ->
      t.entries <- rest;
      Some e

  let remove_site t site =
    let before = List.length t.entries in
    t.entries <- List.filter (fun (e : Ts.t) -> e.site <> site) t.entries;
    List.length t.entries < before

  let remove_ts t ts =
    let before = List.length t.entries in
    t.entries <- List.filter (fun e -> not (Ts.equal e ts)) t.entries;
    List.length t.entries < before

  let mem_site t site = List.exists (fun (e : Ts.t) -> e.site = site) t.entries
  let find_site t site = List.find_opt (fun (e : Ts.t) -> e.site = site) t.entries
  let to_list t = t.entries
  let clear t = t.entries <- []
end

let test_priority_order () =
  let q = Q.create () in
  Q.insert q (ts 3 1);
  Q.insert q (ts 1 2);
  Q.insert q (ts 2 0);
  Alcotest.(check bool) "head is (1,2)" true
    (match Q.head q with Some h -> Ts.equal h (ts 1 2) | None -> false);
  Alcotest.(check (list string)) "full order"
    [ "(1,2)"; "(2,0)"; "(3,1)" ]
    (List.map (Format.asprintf "%a" Ts.pp) (Q.to_list q))

let test_same_site_replaces () =
  let q = Q.create () in
  Q.insert q (ts 5 3);
  Q.insert q (ts 9 3);
  Alcotest.(check int) "one entry" 1 (Q.length q);
  Alcotest.(check bool) "newest kept" true
    (match Q.head q with Some h -> Ts.equal h (ts 9 3) | None -> false)

let test_stale_insert_dropped () =
  (* an out-of-order re-enqueue of a superseded request must not clobber
     the site's newer entry *)
  let q = Q.create () in
  Q.insert q (ts 9 3);
  Q.insert q (ts 5 3);
  Alcotest.(check int) "one entry" 1 (Q.length q);
  Alcotest.(check bool) "newer survives" true
    (match Q.head q with Some h -> Ts.equal h (ts 9 3) | None -> false)

let test_pop () =
  let q = Q.create () in
  Q.insert q (ts 2 2);
  Q.insert q (ts 1 1);
  Alcotest.(check bool) "pop best" true
    (match Q.pop q with Some h -> Ts.equal h (ts 1 1) | None -> false);
  Alcotest.(check int) "one left" 1 (Q.length q);
  Alcotest.(check bool) "empty pop" true (Q.pop q <> None && Q.pop q = None)

let test_remove_site () =
  let q = Q.create () in
  Q.insert q (ts 1 1);
  Q.insert q (ts 2 2);
  Alcotest.(check bool) "removed" true (Q.remove_site q 1);
  Alcotest.(check bool) "absent now" false (Q.mem_site q 1);
  Alcotest.(check bool) "remove missing" false (Q.remove_site q 9)

let test_remove_ts_exact () =
  let q = Q.create () in
  Q.insert q (ts 7 4);
  (* removing an OLD timestamp of the same site must not touch the newer *)
  Alcotest.(check bool) "old ts not present" false (Q.remove_ts q (ts 3 4));
  Alcotest.(check bool) "still queued" true (Q.mem_site q 4);
  Alcotest.(check bool) "exact removes" true (Q.remove_ts q (ts 7 4));
  Alcotest.(check bool) "gone" true (Q.is_empty q)

let test_find_site () =
  let q = Q.create () in
  Q.insert q (ts 6 2);
  Alcotest.(check bool) "found" true
    (match Q.find_site q 2 with Some t -> Ts.equal t (ts 6 2) | None -> false);
  Alcotest.(check bool) "missing" true (Q.find_site q 5 = None)

let test_clear () =
  let q = Q.create () in
  Q.insert q (ts 1 1);
  Q.clear q;
  Alcotest.(check bool) "empty" true (Q.is_empty q)

let qcheck_sorted =
  QCheck.Test.make ~name:"ts_queue keeps priority order" ~count:300
    QCheck.(list (pair (int_range 0 20) (int_range 0 10)))
    (fun entries ->
      let q = Q.create () in
      List.iter (fun (sn, site) -> Q.insert q (ts sn site)) entries;
      let l = Q.to_list q in
      (* sorted by priority *)
      let rec sorted = function
        | a :: (b :: _ as rest) -> Ts.compare a b < 0 && sorted rest
        | _ -> true
      in
      (* at most one entry per site *)
      let sites = List.map (fun (t : Ts.t) -> t.site) l in
      sorted l && List.length sites = List.length (List.sort_uniq compare sites))

type op =
  | Insert of int * int
  | Pop
  | Remove_site of int
  | Remove_ts of int * int
  | Head
  | Find_site of int
  | Mem_site of int
  | To_list
  | Clear

let pp_op = function
  | Insert (sn, site) -> Printf.sprintf "insert(%d,%d)" sn site
  | Pop -> "pop"
  | Remove_site s -> Printf.sprintf "remove_site %d" s
  | Remove_ts (sn, site) -> Printf.sprintf "remove_ts(%d,%d)" sn site
  | Head -> "head"
  | Find_site s -> Printf.sprintf "find_site %d" s
  | Mem_site s -> Printf.sprintf "mem_site %d" s
  | To_list -> "to_list"
  | Clear -> "clear"

(* Up to 20 sites, so a queue grows past its first capacity and shrinks
   back; few sequence numbers, so re-issued and stale timestamps are
   common. Inserts dominate, so queues get long. *)
let gen_op =
  let open QCheck.Gen in
  let sn = int_range 0 12 and site = int_range 0 19 in
  frequency
    [
      (8, map2 (fun a b -> Insert (a, b)) sn site);
      (2, return Pop);
      (2, map (fun s -> Remove_site s) site);
      (2, map2 (fun a b -> Remove_ts (a, b)) sn site);
      (1, return Head);
      (1, map (fun s -> Find_site s) site);
      (1, map (fun s -> Mem_site s) site);
      (1, return To_list);
      (1, return Clear);
    ]

(* Every answer of one op, as text, on either queue. *)
let answers ~pop ~head ~find ~to_list ~remove_site ~remove_ts ~mem ~insert
    ~clear op =
  let o = function None -> "-" | Some e -> Format.asprintf "%a" Ts.pp e in
  let l xs = String.concat ";" (List.map (fun e -> o (Some e)) xs) in
  match op with
  | Insert (sn, site) ->
    insert (ts sn site);
    ""
  | Pop -> o (pop ())
  | Remove_site s -> string_of_bool (remove_site s)
  | Remove_ts (sn, site) -> string_of_bool (remove_ts (ts sn site))
  | Head -> o (head ())
  | Find_site s -> o (find s)
  | Mem_site s -> string_of_bool (mem s)
  | To_list -> l (to_list ())
  | Clear ->
    clear ();
    ""

let of_entries entries =
  let q = Q.create () in
  List.iter (Q.insert q) entries;
  q

let qcheck_matches_reference =
  QCheck.Test.make ~name:"ts_queue matches the sorted-list reference"
    ~count:500
    QCheck.(make ~print:(fun ops -> String.concat ", " (List.map pp_op ops))
              Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      let q = Q.create () and r = Ref.create () in
      List.for_all
        (fun op ->
          let a =
            answers ~pop:(fun () -> Q.pop q) ~head:(fun () -> Q.head q)
              ~find:(Q.find_site q) ~to_list:(fun () -> Q.to_list q)
              ~remove_site:(Q.remove_site q) ~remove_ts:(Q.remove_ts q)
              ~mem:(Q.mem_site q) ~insert:(Q.insert q)
              ~clear:(fun () -> Q.clear q) op
          and b =
            answers ~pop:(fun () -> Ref.pop r) ~head:(fun () -> Ref.head r)
              ~find:(Ref.find_site r) ~to_list:(fun () -> Ref.to_list r)
              ~remove_site:(Ref.remove_site r) ~remove_ts:(Ref.remove_ts r)
              ~mem:(Ref.mem_site r) ~insert:(Ref.insert r)
              ~clear:(fun () -> Ref.clear r) op
          in
          a = b
          && Q.to_list q = Ref.to_list r
          && Q.length q = Ref.length r
          && Q.is_empty q = Ref.is_empty r
          (* canonical: the state is a function of the entries alone *)
          && q = of_entries (Q.to_list q))
        ops)

let test_emptied_is_fresh () =
  (* The model checker compares states structurally: a queue emptied by
     any route must be [=] to a fresh one, whatever it held. *)
  let fill () =
    let q = Q.create () in
    for site = 0 to 19 do
      Q.insert q (ts (40 - site) site)
    done;
    q
  in
  let fresh = Q.create () in
  let check what q = Alcotest.(check bool) what true (q = fresh) in
  let q = fill () in
  while Q.pop q <> None do () done;
  check "emptied by pop" q;
  let q = fill () in
  for site = 0 to 19 do
    ignore (Q.remove_site q site)
  done;
  check "emptied by remove_site" q;
  let q = fill () in
  for site = 19 downto 0 do
    ignore (Q.remove_ts q (ts (40 - site) site))
  done;
  check "emptied by remove_ts" q;
  let q = fill () in
  Q.clear q;
  check "emptied by clear" q;
  let q = fill () in
  Alcotest.(check bool) "a copy is equal" true (Q.copy q = q)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("priority order", test_priority_order);
      ("same site replaces", test_same_site_replaces);
      ("stale insert dropped", test_stale_insert_dropped);
      ("pop", test_pop);
      ("remove by site", test_remove_site);
      ("remove exact timestamp", test_remove_ts_exact);
      ("find_site", test_find_site);
      ("clear", test_clear);
    ]
  @ [
      QCheck_alcotest.to_alcotest qcheck_sorted;
      Alcotest.test_case "emptied queue equals a fresh one" `Quick
        test_emptied_is_fresh;
      QCheck_alcotest.to_alcotest qcheck_matches_reference;
    ]
