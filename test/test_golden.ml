(* Golden deterministic-replay tests: one pinned seed per protocol. The
   same schedule must produce bit-identical reports on every run — and
   after a serialization round-trip through the .dmxrepro format, whose
   hex-float encoding exists precisely so this holds. The fingerprint uses
   %h so even last-ulp drift in the statistics would be caught. *)

module E = Dmx_sim.Engine
module Net = Dmx_sim.Network
module S = Dmx_sim.Stats.Summary
module Sch = Dmx_sim.Schedule
module R = Dmx_baselines.Runner

let fp (r : E.report) =
  Printf.sprintf
    "%s execs=%d msgs=%d sync=%h sync99=%h resp=%h tput=%h viol=%d dead=%b \
     retx=%d pending=%d"
    r.E.protocol r.E.executions r.E.total_messages (S.mean r.E.sync_delay)
    (S.percentile r.E.sync_delay 99.0)
    (S.mean r.E.response_time) r.E.throughput r.E.violations r.E.deadlocked
    r.E.retransmissions r.E.pending_at_end

let fp_of (s : Sch.t) =
  match R.run_schedule s with
  | Error e -> Alcotest.fail e
  | Ok (r, _) -> fp r

let check_deterministic label s =
  let a = fp_of s in
  let b = fp_of s in
  Alcotest.(check string) (label ^ ": bit-identical rerun") a b;
  match Sch.of_string (Sch.to_string s) with
  | Error e -> Alcotest.failf "%s: round-trip: %s" label e
  | Ok s' ->
    Alcotest.(check bool) (label ^ ": schedule round-trips exactly") true
      (s' = s);
    Alcotest.(check string)
      (label ^ ": bit-identical after serialization")
      a (fp_of s')

let golden (algo, quorum, n, seed) () =
  check_deterministic algo
    {
      (Sch.default ~algo ~n) with
      Sch.quorum;
      seed;
      execs = 40;
      cs = 0.7;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
    }

let golden_cases =
  [
    ("delay-optimal", "grid", 9, 101);
    ("ft-delay-optimal", "tree", 7, 202);
    ("maekawa", "grid", 9, 303);
    ("lamport", "", 8, 404);
    ("ricart-agrawala", "", 8, 505);
    ("singhal-dynamic", "", 8, 606);
    ("suzuki-kasami", "", 8, 707);
    ("singhal-heuristic", "", 8, 808);
    ("raymond", "", 8, 909);
  ]

let test_golden_faulty () =
  (* the full fault machinery: loss, duplication, a healing partition, a
     delay spike, crash + recovery, heartbeat detection, retry/ack layer *)
  check_deterministic "ft-delay-optimal (faulty)"
    {
      (Sch.default ~algo:"ft-delay-optimal" ~n:7) with
      Sch.quorum = "tree";
      seed = 77;
      execs = 50;
      cs = 0.5;
      delay = Net.Uniform { lo = 0.5; hi = 1.5 };
      faults =
        {
          Net.no_faults with
          Net.loss = 0.05;
          duplication = 0.02;
          partitions =
            [
              {
                Net.from_t = 20.0;
                until = 45.0;
                groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ];
              };
            ];
          delay_spikes = [ (10.0, 30.0, 2.0) ];
        };
      crashes = [ (30.0, 1) ];
      recoveries = [ (55.0, 1) ];
      detector = E.Heartbeat { Dmx_sim.Detector.period = 2.0; timeout = 10.0 };
      reliability = true;
    }

let test_minimal_file_defaults () =
  (* A hand-written reproducer that omits `workload` must mean "saturated,
     all sites" — the n-dependent default is re-derived after parsing, not
     frozen at the parser's n=0 seed. *)
  match Sch.of_string "dmxrepro v1\nalgo delay-optimal\nn 4\nexecs 5\n" with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "saturated all sites" true
      (s.Sch.workload = Dmx_sim.Workload.Saturated { contenders = 4 })

let test_huge_n_needs_explicit_workload () =
  (* the saturated-all default is a trap at huge N: it would instantiate
     every one of the million sites. The parser must reject it with a
     pointer at the fix, and accept the same file once a lazy-compatible
     workload line is present. *)
  (match Sch.of_string "dmxrepro v1\nalgo delay-optimal\nn 1000000\nexecs 5\n" with
  | Ok _ -> Alcotest.fail "huge-n schedule without workload must not parse"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names the fix: %s" e)
      true
      (let contains hay needle =
         let nh = String.length hay and nn = String.length needle in
         let rec go i =
           i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
         in
         go 0
       in
       contains e "open-loop"));
  match
    Sch.of_string
      "dmxrepro v1\nalgo delay-optimal\nn 1000000\nexecs 5\nworkload \
       open-loop 8 0x1.4p-11\n"
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
    Alcotest.(check bool) "open-loop parsed" true
      (s.Sch.workload
      = Dmx_sim.Workload.Open_loop { active = 8; rate_per_site = 0x1.4p-11 });
    (* and the lazy-compatible form round-trips bit-exactly like the rest *)
    (match Sch.of_string (Sch.to_string s) with
    | Error e -> Alcotest.fail e
    | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s'))

(* Trace pins: the MD5 of [Trace.dump] for three seeded runs. The report
   goldens above pin statistics; these pin every byte of the recorded
   trace (message renderings, entry order, timestamps to 4 decimals), so
   a change to how traces are rendered or stored must leave them exactly
   as they are. Each run also asserts that the entry kinds it exists to
   cover actually occur. *)

let trace_dump tr = Format.asprintf "%a" Dmx_sim.Trace.dump tr

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let pinned_traces =
  [
    ( "ft-delay-optimal, Reliable, 5% loss",
      {
        (Sch.default ~algo:"ft-delay-optimal" ~n:9) with
        Sch.quorum = "tree";
        seed = 1501;
        execs = 40;
        cs = 0.5;
        delay = Net.Exponential { mean = 1.0 };
        faults = { Net.no_faults with Net.loss = 0.05 };
        reliability = true;
      },
      [ "DROP -> "; "seq#"; "ack<="; "retx#" ],
      "8d53fdff34096e7543930a8f3b59ab20" );
    ( "delay-optimal, heavy load",
      {
        (Sch.default ~algo:"delay-optimal" ~n:9) with
        Sch.quorum = "grid";
        seed = 1502;
        execs = 60;
        cs = 0.3;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
      },
      [ "inquire+transfer"; "+transfer("; "release(("; ",->(" ],
      "109153e020540f53fca14b2818a28adb" );
    ( "ft-delay-optimal, crash/recover and duplication",
      {
        (Sch.default ~algo:"ft-delay-optimal" ~n:7) with
        Sch.quorum = "tree";
        seed = 1503;
        execs = 50;
        cs = 0.5;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
        faults = { Net.no_faults with Net.loss = 0.02; duplication = 0.05 };
        crashes = [ (15.0, 2) ];
        recoveries = [ (40.0, 2) ];
        reliability = true;
      },
      [ "DUP -> "; "DROP -> "; "drop (crashed endpoint) -> "; "CRASH";
        "RECOVER"; "seq#0:hello" ],
      "cce52b21a315738629a47b7339e7f171" );
    ( "partition, ft-delay-optimal, Reliable, 5% loss",
      {
        (Sch.default ~algo:"ft-delay-optimal" ~n:7) with
        Sch.quorum = "tree";
        seed = 1504;
        execs = 50;
        cs = 0.5;
        delay = Net.Uniform { lo = 0.5; hi = 1.5 };
        faults =
          {
            Net.no_faults with
            Net.loss = 0.05;
            partitions =
              [
                {
                  Net.from_t = 10.0;
                  until = 30.0;
                  groups = [ [ 0; 1; 2 ]; [ 3; 4; 5; 6 ] ];
                };
              ];
          };
        reliability = true;
      },
      [ "DROP -> "; "(partition)"; "(loss)"; "retx#" ],
      "33ee60ae80fb01452b4096fbf6ce44cd" );
  ]

let test_trace_pin (label, s, must_contain, digest) () =
  match R.run_schedule s with
  | Error e -> Alcotest.fail e
  | Ok (_, tr) ->
    let dump = trace_dump tr in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: trace contains %S" label needle)
          true (contains dump needle))
      must_contain;
    Alcotest.(check string)
      (label ^ ": trace digest")
      digest
      (Digest.to_hex (Digest.string dump))

let suite =
  List.map
    (fun ((algo, quorum, _, _) as case) ->
      let label =
        if quorum = "" then algo else Printf.sprintf "%s (%s)" algo quorum
      in
      Alcotest.test_case label `Quick (golden case))
    golden_cases
  @ [
      Alcotest.test_case "ft-delay-optimal under faults" `Quick
        test_golden_faulty;
      Alcotest.test_case "minimal .dmxrepro gets saturated-all default" `Quick
        test_minimal_file_defaults;
      Alcotest.test_case "huge-n .dmxrepro needs an explicit workload" `Quick
        test_huge_n_needs_explicit_workload;
    ]
  @ List.map
      (fun ((label, _, _, _) as pin) ->
        Alcotest.test_case ("trace pin: " ^ label) `Quick (test_trace_pin pin))
      pinned_traces
