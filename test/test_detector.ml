(* Heartbeat/timeout failure detector: suspect and trust transitions. *)

module D = Dmx_sim.Detector

let cfg = { D.period = 2.0; timeout = 10.0 }

let test_all_trusted_initially () =
  let d = D.create cfg ~n:4 ~self:0 ~now:0.0 in
  Alcotest.(check (list int)) "no suspects" [] (D.suspects d);
  Alcotest.(check (list int)) "nothing new" [] (D.sweep d ~now:9.9)

let test_timeout_suspects () =
  let d = D.create cfg ~n:4 ~self:0 ~now:0.0 in
  ignore (D.heartbeat d ~src:2 ~now:5.0);
  (* at t=12: sites 1 and 3 are past 0 + timeout, site 2 is fresh *)
  Alcotest.(check (list int)) "newly suspected" [ 1; 3 ] (D.sweep d ~now:12.0);
  Alcotest.(check (list int)) "standing" [ 1; 3 ] (D.suspects d);
  Alcotest.(check bool) "site 2 trusted" false (D.suspected d 2);
  (* a second sweep must not re-report them *)
  Alcotest.(check (list int)) "no re-report" [] (D.sweep d ~now:13.0);
  (* site 2 expires later *)
  Alcotest.(check (list int)) "site 2 expires" [ 2 ] (D.sweep d ~now:15.1)

let test_self_never_suspected () =
  let d = D.create cfg ~n:3 ~self:1 ~now:0.0 in
  Alcotest.(check (list int)) "peers only" [ 0; 2 ] (D.sweep d ~now:100.0);
  Alcotest.(check bool) "not self" false (D.suspected d 1)

let test_trust_transition () =
  let d = D.create cfg ~n:3 ~self:0 ~now:0.0 in
  Alcotest.(check bool) "fresh heartbeat: no transition" false
    (D.heartbeat d ~src:1 ~now:1.0);
  ignore (D.sweep d ~now:20.0);
  Alcotest.(check bool) "suspected" true (D.suspected d 1);
  Alcotest.(check bool) "late heartbeat revokes" true
    (D.heartbeat d ~src:1 ~now:21.0);
  Alcotest.(check bool) "trusted again" false (D.suspected d 1);
  (* the deadline restarted from the heartbeat: site 1 is not immediately
     re-suspected (site 2, already reported at t=20, is never re-reported) *)
  Alcotest.(check (list int)) "not immediately re-suspected" []
    (D.sweep d ~now:22.0);
  Alcotest.(check (list int)) "re-suspected after timeout" [ 1 ]
    (D.sweep d ~now:31.1)

let test_reset () =
  let d = D.create cfg ~n:3 ~self:0 ~now:0.0 in
  ignore (D.sweep d ~now:50.0);
  Alcotest.(check (list int)) "both suspected" [ 1; 2 ] (D.suspects d);
  D.reset d ~now:50.0;
  Alcotest.(check (list int)) "all forgiven" [] (D.suspects d);
  Alcotest.(check (list int)) "deadlines restarted" [] (D.sweep d ~now:59.9);
  Alcotest.(check (list int)) "expire again" [ 1; 2 ] (D.sweep d ~now:60.1)

(* a live daemon feeds the detector the sender a network frame names,
   which can be any id: the supervisor's [n], an anonymous [-1], or
   garbage *)
let test_foreign_src_ignored () =
  let d = D.create cfg ~n:3 ~self:0 ~now:0.0 in
  List.iter
    (fun src ->
      Alcotest.(check bool)
        (Printf.sprintf "src %d: no transition" src)
        false
        (D.heartbeat d ~src ~now:1.0))
    [ -1; 3; 99; max_int; min_int ];
  Alcotest.(check (list int)) "in-range peers unaffected" [ 1; 2 ]
    (D.sweep d ~now:10.5)

let test_config_validated () =
  let bad c =
    try
      ignore (D.create c ~n:3 ~self:0 ~now:0.0);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero period" true
    (bad { D.period = 0.0; timeout = 10.0 });
  Alcotest.(check bool) "timeout <= period" true
    (bad { D.period = 2.0; timeout = 2.0 })

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("all trusted initially", test_all_trusted_initially);
      ("timeout suspects silent peers", test_timeout_suspects);
      ("self never suspected", test_self_never_suspected);
      ("heartbeat revokes suspicion", test_trust_transition);
      ("reset forgives everyone", test_reset);
      ("config validated", test_config_validated);
      ("out-of-range sender ignored", test_foreign_src_ignored);
    ]
