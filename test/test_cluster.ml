(* Integration tests for the networked runtime: real node processes over
   localhost TCP, supervised by Dmx_service.Cluster, with the merged live
   trace checked by the same oracle the simulator uses.

   The default suite keeps to a quick 3-node run so `dune runtest` stays
   fast and robust. The full acceptance scenario — 5 sites under
   ft-delay-optimal, >= 20 CS entries per site, one kill plus restart
   mid-run — is gated behind DMX_CLUSTER_FULL=1 and run by the dedicated
   CI job, which uploads the merged trace as an artifact on failure
   (written to DMX_CLUSTER_TRACE_DIR). *)

module Cluster = Dmx_service.Cluster
module Oracle = Dmx_sim.Oracle
module E = Dmx_sim.Engine

let full_enabled = Sys.getenv_opt "DMX_CLUSTER_FULL" = Some "1"

let dump_trace_on_failure name entries =
  match Sys.getenv_opt "DMX_CLUSTER_TRACE_DIR" with
  | None -> ()
  | Some dir ->
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    let path = Filename.concat dir (name ^ ".trace") in
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    List.iter
      (fun e -> Format.fprintf ppf "%a@." Dmx_sim.Trace.pp_entry e)
      entries;
    Format.pp_print_flush ppf ();
    close_out oc;
    Printf.eprintf "merged trace written to %s\n%!" path

let check_outcome name ~min_execs (o : Cluster.outcome) =
  let r = o.Cluster.report in
  let ok =
    r.E.violations = 0
    && Oracle.ok o.Cluster.verdict
    && r.E.executions >= min_execs
  in
  if not ok then begin
    dump_trace_on_failure name o.Cluster.entries;
    Format.eprintf "%a@." Cluster.pp_outcome o
  end;
  Alcotest.(check int) "mutual exclusion violations" 0 r.E.violations;
  Alcotest.(check bool) "oracle accepts the merged trace" true
    (Oracle.ok o.Cluster.verdict);
  Alcotest.(check bool)
    (Printf.sprintf "executions >= %d (got %d)" min_execs r.E.executions)
    true
    (r.E.executions >= min_execs)

let test_small_cluster () =
  let cfg =
    {
      (Cluster.default ~n:3) with
      Cluster.protocol = "delay-optimal";
      rounds = 5;
      timeout = 30.0;
    }
  in
  match Cluster.run cfg with
  | Error e -> Alcotest.fail e
  | Ok o -> check_outcome "small-cluster" ~min_execs:15 o

let test_full_ft_cluster () =
  if not full_enabled then
    Alcotest.skip ()
  else
    let cfg =
      {
        (Cluster.default ~n:5) with
        Cluster.protocol = "ft-delay-optimal";
        rounds = 20;
        kills = [ (2.0, 1) ];
        restarts = [ (4.0, 1) ];
        timeout = 120.0;
      }
    in
    match Cluster.run cfg with
    | Error e -> Alcotest.fail e
    | Ok o ->
      (* 4 surviving sites x 20 rounds, plus whatever the killed site's two
         lives completed: >= 20 per surviving site means >= 100 total with
         the restarted site's second life included *)
      check_outcome "full-ft-cluster" ~min_execs:100 o

let test_small_udp_cluster () =
  let cfg =
    {
      (Cluster.default ~n:3) with
      Cluster.protocol = "ft-delay-optimal";
      transport = "udp";
      rounds = 5;
      timeout = 30.0;
    }
  in
  match Cluster.run cfg with
  | Error e -> Alcotest.fail e
  | Ok o -> check_outcome "small-udp-cluster" ~min_execs:15 o

(* the acceptance scenario from the chaos harness: genuine datagram loss,
   duplication and a kill+restart, with the unmodified oracle on the
   merged trace and a nonzero live retransmission count *)
let test_chaos_udp_cluster () =
  if not full_enabled then
    Alcotest.skip ()
  else
    let cfg =
      {
        (Cluster.default ~n:5) with
        Cluster.protocol = "ft-delay-optimal";
        transport = "udp";
        chaos =
          {
            Dmx_sim.Network.no_faults with
            Dmx_sim.Network.loss = 0.2;
            duplication = 0.05;
          };
        rounds = 10;
        seed = 7;
        kills = [ (2.0, 1) ];
        restarts = [ (4.0, 1) ];
        timeout = 180.0;
      }
    in
    match Cluster.run cfg with
    | Error e -> Alcotest.fail e
    | Ok o ->
      check_outcome "chaos-udp-cluster" ~min_execs:40 o;
      let totals = Cluster.live_totals o in
      let get k = match List.assoc_opt k totals with Some v -> v | None -> 0 in
      Alcotest.(check bool)
        (Printf.sprintf "chaos really dropped frames (lost %d)"
           (get "chaos.lost"))
        true
        (get "chaos.lost" > 0);
      Alcotest.(check bool)
        (Printf.sprintf "reliability layer really retransmitted (retx %d)"
           (get "reliable.retransmits{shard=0}"))
        true
        (get "reliable.retransmits{shard=0}" > 0)

(* a partition that cuts site 0 off for longer than the heartbeat
   timeout: the daemons on both sides of the cut suspect each other, and
   every suspicion is false (nobody crashed) and revoked once the window
   closes. The daemons' own suspicion counter must agree with the
   Suspect entries of the merged trace. *)
let test_partition_suspicions () =
  let cfg =
    {
      (Cluster.default ~n:3) with
      Cluster.protocol = "ft-delay-optimal";
      quorum = Dmx_quorum.Builder.Majority;
      chaos =
        {
          Dmx_sim.Network.no_faults with
          Dmx_sim.Network.partitions =
            [ { Dmx_sim.Network.from_t = 0.0; until = 1.5; groups = [ [ 0 ] ] } ];
        };
      detector = { Dmx_sim.Detector.period = 0.1; timeout = 0.5 };
      rounds = 30;
      cs_duration = 0.05;
      timeout = 60.0;
    }
  in
  match Cluster.run cfg with
  | Error e -> Alcotest.fail e
  | Ok o ->
    let r = o.Cluster.report in
    if not (Oracle.ok o.Cluster.verdict && r.E.suspicions > 0) then begin
      dump_trace_on_failure "partition-suspicions" o.Cluster.entries;
      Format.eprintf "%a@." Cluster.pp_outcome o
    end;
    Alcotest.(check bool) "oracle accepts the merged trace" true
      (Oracle.ok o.Cluster.verdict);
    Alcotest.(check bool)
      (Printf.sprintf "the partition raised suspicions (%d)" r.E.suspicions)
      true (r.E.suspicions > 0);
    Alcotest.(check int) "every suspicion was false" r.E.suspicions
      r.E.false_suspicions;
    Alcotest.(check int) "the daemons counted the same suspicions"
      r.E.suspicions
      (Option.value ~default:0
         (List.assoc_opt "detector.suspicions" (Cluster.live_totals o)))

(* a node that cannot bind its port must fail the run quickly, by name —
   not wedge the supervisor until the global timeout *)
let test_bind_failure_names_the_node () =
  (* occupy a port, then force the cluster to assign it to site 1 *)
  let blocker = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close blocker)
    (fun () ->
      Unix.bind blocker (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen blocker 1;
      let taken =
        match Unix.getsockname blocker with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      let free () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        let p =
          match Unix.getsockname fd with
          | Unix.ADDR_INET (_, p) -> p
          | _ -> assert false
        in
        Unix.close fd;
        p
      in
      let ports = [ free (); taken; free (); free () ] in
      let cfg =
        {
          (Cluster.default ~n:3) with
          Cluster.protocol = "delay-optimal";
          rounds = 2;
          ports = Some ports;
          hello_timeout = 5.0;
          timeout = 30.0;
        }
      in
      let t0 = Unix.gettimeofday () in
      match Cluster.run cfg with
      | Ok _ -> Alcotest.fail "cluster came up on an occupied port"
      | Error msg ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
          at 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "error names node 1: %S" msg)
          true
          (contains msg "node 1" || contains msg "node(s) 1");
        Alcotest.(check bool) "failed fast, not at the global timeout" true
          (Unix.gettimeofday () -. t0 < cfg.Cluster.timeout))

let test_bad_configs () =
  let bad cfg = match Cluster.run cfg with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "n too small" true
    (bad { (Cluster.default ~n:1) with Cluster.timeout = 5.0 });
  Alcotest.(check bool) "restart without kill" true
    (bad
       {
         (Cluster.default ~n:3) with
         Cluster.restarts = [ (1.0, 0) ];
         timeout = 5.0;
       });
  Alcotest.(check bool) "kill site out of range" true
    (bad
       {
         (Cluster.default ~n:3) with
         Cluster.kills = [ (1.0, 7) ];
         timeout = 5.0;
       });
  Alcotest.(check bool) "unknown protocol is rejected" true
    (bad
       {
         (Cluster.default ~n:3) with
         Cluster.protocol = "nope";
         timeout = 10.0;
       });
  Alcotest.(check bool) "zero heartbeat period is rejected" true
    (bad
       {
         (Cluster.default ~n:3) with
         Cluster.detector = { Dmx_sim.Detector.period = 0.0; timeout = 1.0 };
         timeout = 5.0;
       });
  Alcotest.(check bool) "heartbeat timeout not above the period is rejected"
    true
    (bad
       {
         (Cluster.default ~n:3) with
         Cluster.detector = { Dmx_sim.Detector.period = 1.5; timeout = 1.0 };
         timeout = 5.0;
       })

let suite =
  [
    Alcotest.test_case "3-node delay-optimal cluster" `Slow test_small_cluster;
    Alcotest.test_case "5-node ft cluster with kill+restart (DMX_CLUSTER_FULL)"
      `Slow test_full_ft_cluster;
    Alcotest.test_case "3-node ft cluster over UDP" `Slow test_small_udp_cluster;
    Alcotest.test_case
      "5-node UDP cluster under 20% loss + kill/restart (DMX_CLUSTER_FULL)"
      `Slow test_chaos_udp_cluster;
    Alcotest.test_case "partition suspicions are false and counted" `Slow
      test_partition_suspicions;
    Alcotest.test_case "bind failure fails fast and names the node" `Slow
      test_bind_failure_names_the_node;
    Alcotest.test_case "bad configurations rejected" `Quick test_bad_configs;
  ]
