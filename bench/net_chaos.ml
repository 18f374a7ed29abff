(* N2: live chaos soak — the real multi-process cluster over UDP with
   genuine datagram loss and duplication injected by the deterministic
   fault shim, timed end to end.

   Where N1 measures the runtime on a clean loopback, N2 measures what
   the reliability layer costs when the network actually misbehaves: the
   oracle still has to accept the merged trace, and the interesting
   numbers are the live retransmission volume, the injected-fault
   counts, and how much wall-clock the recovery machinery adds per CS
   entry. The fault schedule is a pure function of the seed, so the
   figures are comparable run over run. *)

module Cluster = Dmx_service.Cluster
module Net = Dmx_sim.Network
module E = Dmx_sim.Engine

let run () =
  let quick = !Scenarios.quick in
  let n = if quick then 3 else 5 in
  let rounds = if quick then 5 else 15 in
  let loss = if quick then 0.10 else 0.20 in
  let cfg =
    {
      (Cluster.default ~n) with
      Cluster.protocol = "ft-delay-optimal";
      transport = "udp";
      chaos = { Net.no_faults with Net.loss; duplication = 0.05 };
      rounds;
      seed = 7;
      timeout = 180.0;
    }
  in
  match Cluster.run cfg with
  | Error e -> failwith ("cluster-chaos: " ^ e)
  | Ok o ->
    let r = o.Cluster.report in
    let totals = Cluster.live_totals o in
    let get k = match List.assoc_opt k totals with Some v -> v | None -> 0 in
    let sent = get "transport.sent" in
    let retx = get "reliable.retransmits{shard=0}" in
    Printf.printf
      "cluster-chaos: n=%d rounds=%d loss=%.2f dup=0.05 executions=%d \
       wall=%.2fs cs/sec=%.1f injected-lost=%d injected-dup=%d retx=%d \
       retx/sent=%.3f dup-drops=%d violations=%d oracle=%s\n%!"
      n rounds loss r.E.executions o.Cluster.wall_seconds
      (float_of_int r.E.executions /. o.Cluster.wall_seconds)
      (get "chaos.lost") (get "chaos.duplicated") retx
      (if sent > 0 then float_of_int retx /. float_of_int sent else 0.0)
      (get "reliable.dup_drops{shard=0}") r.E.violations
      (if Dmx_sim.Oracle.ok o.Cluster.verdict then "ok" else "REJECTED");
    if r.E.violations > 0 || not (Dmx_sim.Oracle.ok o.Cluster.verdict) then
      failwith "cluster-chaos: safety check failed";
    if get "chaos.lost" = 0 then
      failwith "cluster-chaos: the shim injected no loss — nothing was soaked";
    if retx = 0 then
      failwith "cluster-chaos: no retransmissions under 10%+ loss is implausible"
