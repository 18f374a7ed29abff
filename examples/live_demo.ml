(* The protocol outside the simulator: four real processes on loopback
   TCP, each one site, each entering the critical section eight times.
   The merged trace of the live run goes through the same oracle the
   simulator uses, and an independent occupancy scan counts any overlap.
   A second run kills a site mid-run and restarts it: its client
   re-homes to a live node, and the fault-tolerant variant's survivors
   rebuild their quorums and finish.

     dune exec examples/live_demo.exe
*)

module Cluster = Dmx_service.Cluster

(* the daemons are copies of this binary: let them take over first *)
let () = Dmx_service.Snode.run_as_child_if_requested ()

let show name (cfg : Cluster.config) =
  match Cluster.run cfg with
  | Error e ->
    prerr_endline e;
    exit 1
  | Ok o ->
    let r = o.Cluster.report in
    Printf.printf
      "%-16s %3d CS executions on %d processes, %4d messages, %.2f s wall, \
       violations %d, oracle %s\n%!"
      name r.Dmx_sim.Engine.executions cfg.Cluster.n
      r.Dmx_sim.Engine.total_messages o.Cluster.wall_seconds
      r.Dmx_sim.Engine.violations
      (if Dmx_sim.Oracle.ok o.Cluster.verdict then "ok" else "REJECTED");
    assert (r.Dmx_sim.Engine.violations = 0 && Dmx_sim.Oracle.ok o.Cluster.verdict)

let () =
  let base =
    { (Cluster.default ~n:4) with Cluster.rounds = 8; cs_duration = 0.002 }
  in
  print_endline
    "running the delay-optimal algorithm on 4 live processes (8 CS rounds \
     each, 2 ms CS):\n";
  show "delay-optimal" { base with Cluster.protocol = "delay-optimal" };
  show "ft + kill/restart"
    {
      base with
      Cluster.protocol = "ft-delay-optimal";
      kills = [ (0.05, 3) ];
      restarts = [ (1.5, 3) ];
    };
  print_endline
    "\nboth runs completed with occupancy never exceeding one: the protocol\n\
     holds up across real processes and sockets, not just under the\n\
     simulator's deterministic schedules."
