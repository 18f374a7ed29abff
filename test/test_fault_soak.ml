(* Randomized fault soak: many seeded fault schedules (loss, duplication,
   partitions, delay spikes, crash/recovery pairs) against the FT protocol
   with the heartbeat detector and the reliability layer. Every schedule
   must preserve safety (violations = 0) and liveness (the full execution
   quota completes after partitions heal — no deadlock).

   The schedule count defaults to a quick smoke and is raised in CI via
   DMX_SOAK_SEEDS (the ci fault-soak job runs 50 per coterie). *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module W = Dmx_sim.Workload
module R = Dmx_baselines.Runner
module B = Dmx_quorum.Builder
module Rng = Dmx_sim.Rng

let seeds =
  match int_of_string_opt (try Sys.getenv "DMX_SOAK_SEEDS" with Not_found -> "")
  with
  | Some s when s > 0 -> s
  | _ -> 12

let quota = 60

(* Derive a deterministic fault schedule from the seed. Crashed sites
   always recover: under the untrusted detector a permanently crashed
   arbiter's lock tenure is never reclaimed (reclaiming on suspicion could
   violate safety), so permanent crashes are an oracle-detector scenario —
   see Ft_delay_optimal's doc. *)
let scenario ~n seed =
  let rng = Rng.create (1_000 + seed) in
  let loss = Rng.float rng 0.08 in
  let dup = if Rng.bool rng then Rng.float rng 0.03 else 0.0 in
  let partitions =
    if Rng.bool rng then begin
      let from_t = 20.0 +. Rng.float rng 20.0 in
      let span = 15.0 +. Rng.float rng 25.0 in
      let cut = 1 + Rng.int rng (n - 1) in
      [
        {
          Net.from_t;
          until = from_t +. span;
          groups = [ List.init cut Fun.id; List.init (n - cut) (fun i -> cut + i) ];
        };
      ]
    end
    else []
  in
  let delay_spikes =
    if Rng.bool rng then [ (10.0 +. Rng.float rng 30.0, 60.0, 2.0) ] else []
  in
  let crashes, recoveries =
    if Rng.bool rng then begin
      let site = Rng.int rng n in
      let at = 15.0 +. Rng.float rng 30.0 in
      ([ (at, site) ], [ (at +. 25.0 +. Rng.float rng 15.0, site) ])
    end
    else ([], [])
  in
  ( { Net.no_faults with Net.loss; duplication = dup; partitions; delay_spikes },
    crashes,
    recoveries )

let soak kind n () =
  for seed = 1 to seeds do
    let faults, crashes, recoveries = scenario ~n seed in
    let cfg =
      {
        (E.default ~n) with
        seed;
        max_executions = quota;
        warmup = 0;
        cs_duration = 0.5;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
        detector = E.Heartbeat { Dmx_sim.Detector.period = 2.0; timeout = 10.0 };
        faults;
        crashes;
        recoveries;
        max_time = 1.0e6;
      }
    in
    let r =
      (R.ft_delay_optimal ~reliability:Dmx_core.Reliable.default
         ~trust_detector:false ~kind ~n ())
        .R.run cfg
    in
    let tag fmt =
      Printf.sprintf
        ("seed %d (loss=%.3f dup=%.3f partitions=%d crashes=%d): " ^^ fmt)
        seed faults.Net.loss faults.Net.duplication
        (List.length faults.Net.partitions)
        (List.length crashes)
    in
    Alcotest.(check int) (tag "violations") 0 r.E.violations;
    Alcotest.(check bool) (tag "deadlocked") false r.E.deadlocked;
    Alcotest.(check int) (tag "quota served") quota r.E.executions
  done

let suite =
  List.map
    (fun (name, kind, n) ->
      Alcotest.test_case
        (Printf.sprintf "%s n=%d x%d schedules" name n seeds)
        `Slow (soak kind n))
    [
      ("tree", B.Tree, 7);
      ("hqc", B.Hqc, 9);
      ("grid-set", B.Grid_set 3, 9);
      ("majority", B.Majority, 7);
    ]
