(* N1: networked-runtime smoke — a real multi-process cluster over
   localhost TCP, timed end to end.

   Unlike every other experiment this one leaves the simulator entirely:
   it spawns daemon processes (re-executing the current binary via the
   Dmx_service.Snode trampoline), runs ft-delay-optimal over real sockets, and
   reports wall-clock throughput plus the oracle verdict on the merged
   live trace. Numbers are environment-dependent by nature; the point of
   benching it is a perf trajectory for the runtime itself (startup cost,
   per-CS latency on loopback), not a paper figure. *)

module Cluster = Dmx_service.Cluster
module E = Dmx_sim.Engine

let run () =
  let quick = !Scenarios.quick in
  let n = if quick then 3 else 5 in
  let rounds = if quick then 5 else 20 in
  let cfg =
    {
      (Cluster.default ~n) with
      Cluster.protocol = "ft-delay-optimal";
      rounds;
      timeout = 120.0;
    }
  in
  match Cluster.run cfg with
  | Error e -> failwith ("cluster-smoke: " ^ e)
  | Ok o ->
    let r = o.Cluster.report in
    Printf.printf
      "cluster-smoke: n=%d rounds=%d executions=%d messages=%d \
       per-cs=%.2f wall=%.2fs cs/sec=%.1f violations=%d oracle=%s\n%!"
      n rounds r.E.executions r.E.total_messages r.E.messages_per_cs
      o.Cluster.wall_seconds
      (float_of_int r.E.executions /. o.Cluster.wall_seconds)
      r.E.violations
      (if Dmx_sim.Oracle.ok o.Cluster.verdict then "ok" else "REJECTED");
    if r.E.violations > 0 || not (Dmx_sim.Oracle.ok o.Cluster.verdict) then
      failwith "cluster-smoke: safety check failed"
