(* Shared experiment scenarios, all in units of the mean message delay T.
   Mirrors the loading regimes of the paper's Section 5. *)

module E = Dmx_sim.Engine
module W = Dmx_sim.Workload
module Net = Dmx_sim.Network
module S = Dmx_sim.Stats.Summary

(* Global knob set by --quick: fewer executions per run. Set once by the
   driver before any experiment starts; worker domains only read it (the
   Domain.spawn in Pool establishes the happens-before). *)
let quick = ref false
let execs base = if !quick then max 40 (base / 5) else base

(* Parallelism for the embarrassingly-parallel row fan-outs below; same
   set-once-then-read-only discipline as [quick]. Each row is an
   independent seeded simulation, and [Pool] collects results by index,
   so tables — and, through [Validate.par_map], model verdicts — are
   byte-identical at any job count. *)
let jobs = ref 1
let par_map f xs = Validate.par_map ~jobs:!jobs f xs
let par_concat_map f xs = List.concat (par_map f xs)

let heavy ?(seed = 42) ?(cs = 1.0) ?(delay = Net.Constant 1.0) ?(runs = 400) n =
  {
    (E.default ~n) with
    seed;
    cs_duration = cs;
    delay;
    max_executions = execs runs;
    warmup = 30;
  }

let light ?(seed = 42) ?(cs = 1.0) ?(runs = 100) n =
  {
    (E.default ~n) with
    seed;
    cs_duration = cs;
    max_executions = execs runs;
    warmup = 5;
    workload = W.Poisson { rate_per_site = 0.0002 };
    max_time = 1.0e9;
  }

let poisson ?(seed = 42) ?(cs = 1.0) ?(runs = 300) ~rate n =
  {
    (E.default ~n) with
    seed;
    cs_duration = cs;
    max_executions = execs runs;
    warmup = 20;
    workload = W.Poisson { rate_per_site = rate };
    max_time = 1.0e9;
  }

let mean = S.mean
let p50 s = S.percentile s 50.0

(* Grid quorum size for the formula columns. *)
let grid_k n =
  let g = Dmx_quorum.Grid.create ~n in
  Dmx_quorum.Grid.cols g + Dmx_quorum.Grid.rows g - 1
