(* lib/obs: instrument cells, registry semantics, snapshot algebra,
   export formats, the scrape listener, and the sim twin's bit-exact
   metrics reproducibility.

   The histogram properties are checked by qcheck over arbitrary
   observation lists (bucketing invariants, exact count/sum/max,
   quantile monotonicity); snapshot merge is checked associative and
   commutative, and diff is checked as merge's inverse on counters. The
   golden tests pin the Prometheus and JSON export formats byte for
   byte, and the scrape test runs a real HTTP round-trip over an
   ephemeral port. *)

module Metric = Dmx_obs.Metric
module Registry = Dmx_obs.Registry
module Snapshot = Dmx_obs.Snapshot
module Export = Dmx_obs.Export

(* ---- histogram properties ---- *)

let obs_list_gen = QCheck.Gen.(list_size (int_range 0 200) (int_range (-5) 100_000))

let hist_of obs =
  let h = Metric.Histogram.create () in
  List.iter (Metric.Histogram.observe h) obs;
  h

let prop_hist_conservation =
  QCheck.Test.make ~count:500 ~name:"histogram count/sum/max exact"
    (QCheck.make obs_list_gen) (fun obs ->
      let h = hist_of obs in
      Metric.Histogram.count h = List.length obs
      && Metric.Histogram.sum h = List.fold_left ( + ) 0 obs
      && Metric.Histogram.max h
         = List.fold_left (fun a v -> if v > a then v else a) 0 obs
      && Array.fold_left ( + ) 0 (Metric.Histogram.bucket_counts h)
         = List.length obs)

let prop_hist_bucketing =
  QCheck.Test.make ~count:1000 ~name:"bucket_of within bucket bounds"
    (QCheck.make QCheck.Gen.(int_range (-10) 10_000_000))
    (fun v ->
      let i = Metric.Histogram.bucket_of v in
      0 <= i
      && i < Metric.Histogram.buckets
      && (v <= 0) = (i = 0)
      && (i = 0 || v <= Metric.Histogram.bucket_upper i)
      && (i <= 1 || v > Metric.Histogram.bucket_upper (i - 1)))

let prop_hist_quantile_monotone =
  QCheck.Test.make ~count:500 ~name:"quantiles monotone, p100 = max"
    (QCheck.make obs_list_gen) (fun obs ->
      let h = hist_of obs in
      if obs = [] then Metric.Histogram.quantile h 50.0 = 0
      else
        let qs = List.map (Metric.Histogram.quantile h) [ 0.0; 50.0; 90.0; 99.0; 100.0 ] in
        let rec mono = function
          | a :: (b :: _ as rest) -> a <= b && mono rest
          | _ -> true
        in
        mono qs
        && Metric.Histogram.quantile h 100.0 = Metric.Histogram.max h)

let prop_hist_quantile_band =
  QCheck.Test.make ~count:500
    ~name:"bucketed p50 within 2x of exact p50 (positive obs)"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 200) (int_range 1 100_000)))
    (fun obs ->
      let h = hist_of obs in
      let sorted = Array.of_list obs in
      Array.sort compare sorted;
      let exact =
        sorted.(Dmx_obs.Quantile.nearest_rank ~count:(Array.length sorted) 50.0)
      in
      let bucketed = Metric.Histogram.quantile h 50.0 in
      (* the bucketed readout is the containing bucket's upper bound,
         clamped to max: never below the exact value, never 2x above *)
      bucketed >= exact && bucketed < 2 * exact)

(* ---- snapshot algebra ---- *)

let snap_gen =
  let open QCheck.Gen in
  let series_gen i =
    map2
      (fun labeled v ->
        Snapshot.series
          ~name:(Printf.sprintf "m.%d" i)
          ~labels:(if labeled then [ ("k", "v") ] else [])
          (Snapshot.Counter v))
      bool (int_range 0 1_000)
  in
  int_range 0 6 >>= fun n ->
  flatten_l (List.init n series_gen) >>= fun raw ->
  return (Snapshot.normalize raw)

let prop_merge_comm =
  QCheck.Test.make ~count:500 ~name:"merge commutative"
    (QCheck.make QCheck.Gen.(pair snap_gen snap_gen))
    (fun (a, b) -> Snapshot.merge a b = Snapshot.merge b a)

let prop_merge_assoc =
  QCheck.Test.make ~count:500 ~name:"merge associative"
    (QCheck.make QCheck.Gen.(triple snap_gen snap_gen snap_gen))
    (fun (a, b, c) ->
      Snapshot.merge (Snapshot.merge a b) c
      = Snapshot.merge a (Snapshot.merge b c))

let prop_diff_inverts_merge =
  QCheck.Test.make ~count:500 ~name:"diff ~older:a ~newer:(merge a b) ~ b"
    (QCheck.make QCheck.Gen.(pair snap_gen snap_gen))
    (fun (a, b) ->
      (* counters only (snap_gen): every series of b reads back exactly,
         and series from a alone read back as zero *)
      let d = Snapshot.diff ~older:a ~newer:(Snapshot.merge a b) in
      List.for_all
        (fun (s : Snapshot.series) ->
          match Snapshot.find ~labels:s.labels b s.name with
          | Some v -> s.value = v
          | None -> s.value = Snapshot.Counter 0)
        d
      && List.for_all
           (fun (s : Snapshot.series) ->
             Snapshot.find ~labels:s.labels d s.name = Some s.value)
           b)

let test_diff_drops_older_only () =
  let a = Snapshot.normalize [ Snapshot.series ~name:"x" ~labels:[] (Snapshot.Counter 3) ] in
  Alcotest.(check int)
    "older-only series dropped" 0
    (List.length (Snapshot.diff ~older:a ~newer:[]))

let test_histogram_merge () =
  let h1 = hist_of [ 1; 2; 3 ] and h2 = hist_of [ 100; 200 ] in
  let s v = [ Snapshot.series ~name:"h" ~labels:[] v ] in
  let hd h =
    Snapshot.Histogram
      {
        buckets = Metric.Histogram.bucket_counts h;
        count = Metric.Histogram.count h;
        sum = Metric.Histogram.sum h;
        max = Metric.Histogram.max h;
      }
  in
  match Snapshot.merge (s (hd h1)) (s (hd h2)) with
  | [ { value = Snapshot.Histogram m; _ } ] ->
    Alcotest.(check int) "count adds" 5 m.count;
    Alcotest.(check int) "sum adds" 306 m.sum;
    Alcotest.(check int) "max of maxes" 200 m.max
  | _ -> Alcotest.fail "expected one merged histogram series"

(* ---- registry semantics ---- *)

let test_registry_family () =
  let reg = Registry.create () in
  let c1 = Registry.counter reg "hits" ~labels:[ ("shard", "0") ] in
  let c1' = Registry.counter reg "hits" ~labels:[ ("shard", "0") ] in
  let c2 = Registry.counter reg "hits" ~labels:[ ("shard", "1") ] in
  Metric.Counter.incr c1;
  Metric.Counter.add c1' 2;
  Metric.Counter.incr c2;
  let snap = Registry.snapshot reg in
  Alcotest.(check int)
    "same (name, labels) resolves to the same cell" 3
    (Snapshot.get snap "hits" ~labels:[ ("shard", "0") ]);
  Alcotest.(check int)
    "distinct label value is a distinct cell" 1
    (Snapshot.get snap "hits" ~labels:[ ("shard", "1") ]);
  Alcotest.(check int) "sum_matching spans the family" 4
    (Snapshot.sum_matching ~prefix:"hits" snap)

let test_registry_kind_clash () =
  let reg = Registry.create () in
  ignore (Registry.counter reg "x");
  Alcotest.check_raises "gauge under a counter name"
    (Invalid_argument
       "Obs.Registry: x already registered as a counter, not a gauge")
    (fun () -> ignore (Registry.gauge reg "x"))

let test_probe_polled_at_snapshot () =
  let reg = Registry.create () in
  let v = ref 1 in
  Registry.probe reg "polled" (fun () -> !v);
  let s1 = Registry.snapshot reg in
  v := 41;
  let s2 = Registry.snapshot reg in
  Alcotest.(check int) "first poll" 1 (Snapshot.get s1 "polled");
  Alcotest.(check int) "probe re-polled per snapshot" 41
    (Snapshot.get s2 "polled")

(* ---- export goldens ---- *)

let golden_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg "node.sent" in
  Metric.Counter.add c 7;
  let g = Registry.gauge reg "queue.depth" ~labels:[ ("shard", "2") ] in
  Metric.Gauge.set g 5;
  let h = Registry.histogram reg "acquire.latency" in
  List.iter (Metric.Histogram.observe h) [ 1; 3; 3; 900 ];
  reg

let test_prometheus_golden () =
  let expected =
    "# TYPE acquire_latency histogram\n\
     acquire_latency_bucket{le=\"0\"} 0\n\
     acquire_latency_bucket{le=\"1\"} 1\n\
     acquire_latency_bucket{le=\"3\"} 3\n\
     acquire_latency_bucket{le=\"1023\"} 4\n\
     acquire_latency_bucket{le=\"+Inf\"} 4\n\
     acquire_latency_sum 907\n\
     acquire_latency_count 4\n\
     # TYPE node_sent counter\n\
     node_sent 7\n\
     # TYPE queue_depth gauge\n\
     queue_depth{shard=\"2\"} 5\n"
  in
  Alcotest.(check string)
    "prometheus text" expected
    (Export.prometheus (Registry.snapshot (golden_registry ())))

let test_json_golden_roundtrip () =
  let snap = Registry.snapshot (golden_registry ()) in
  let body = Export.json snap in
  (* pinned fragments rather than the whole document: the schema tag and
     the derived readouts *)
  let contains sub =
    let n = String.length sub and len = String.length body in
    let rec go i = i + n <= len && (String.sub body i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "schema tag" true (contains "\"dmx-metrics/1\"");
  Alcotest.(check bool)
    "histogram readouts" true
    (contains "\"count\": 4, \"sum\": 907, \"max\": 900");
  (* and the export parses back to the same snapshot *)
  match Dmx_model.Metrics_json.parse body with
  | Ok snap' -> Alcotest.(check bool) "JSON round-trip" true (snap = snap')
  | Error e -> Alcotest.failf "parse: %s" e

(* ---- the scrape listener: real HTTP over an ephemeral port ---- *)

let test_scrape_roundtrip () =
  let reg = golden_registry () in
  let srv =
    Dmx_net.Scrape.start ~port:0 (fun () -> Registry.snapshot reg)
  in
  Fun.protect
    ~finally:(fun () -> Dmx_net.Scrape.stop srv)
    (fun () ->
      let port = Dmx_net.Scrape.port srv in
      (match Dmx_net.Scrape.http_get ~port "/metrics" with
      | Ok (200, body) ->
        Alcotest.(check string)
          "scraped text = exporter output"
          (Export.prometheus (Registry.snapshot reg))
          body
      | Ok (code, _) -> Alcotest.failf "/metrics: HTTP %d" code
      | Error e -> Alcotest.failf "/metrics: %s" e);
      (match Dmx_net.Scrape.http_get ~port "/metrics.json" with
      | Ok (200, body) -> (
        match Dmx_model.Metrics_json.parse body with
        | Ok snap ->
          Alcotest.(check int) "scraped counter" 7 (Snapshot.get snap "node.sent")
        | Error e -> Alcotest.failf "/metrics.json parse: %s" e)
      | Ok (code, _) -> Alcotest.failf "/metrics.json: HTTP %d" code
      | Error e -> Alcotest.failf "/metrics.json: %s" e);
      match Dmx_net.Scrape.http_get ~port "/nope" with
      | Ok (404, _) -> ()
      | Ok (code, _) -> Alcotest.failf "/nope: HTTP %d (want 404)" code
      | Error e -> Alcotest.failf "/nope: %s" e)

(* Hostile clients: random bytes, a 100 KB request line with no newline,
   more header lines than the listener drains, and a client that hangs up
   before its response is written. The registry renders to more than one
   64 KB write, so the early hang-up makes the listener write into a
   reset connection; with SIGPIPE at its default action that would kill
   the test process, so the test restores the default before [start]. *)

let hostile_client ~port ~hang_up payload =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      try
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
        ignore (Unix.write_substring fd payload 0 (String.length payload));
        if not hang_up then begin
          Unix.shutdown fd SHUTDOWN_SEND;
          Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
          let chunk = Bytes.create 4096 in
          while Unix.read fd chunk 0 4096 > 0 do () done
        end
      with Unix.Unix_error _ -> ())

let test_scrape_hostile_clients () =
  let reg = Registry.create () in
  for i = 0 to 3999 do
    Metric.Counter.add
      (Registry.counter reg "scrape.filler" ~labels:[ ("i", string_of_int i) ])
      i
  done;
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  let srv = Dmx_net.Scrape.start ~port:0 (fun () -> Registry.snapshot reg) in
  Fun.protect
    ~finally:(fun () -> Dmx_net.Scrape.stop srv)
    (fun () ->
      let port = Dmx_net.Scrape.port srv in
      let expected = Export.prometheus (Registry.snapshot reg) in
      Alcotest.(check bool) "response spans several writes" true
        (String.length expected > 65536);
      let still_serves what =
        match Dmx_net.Scrape.http_get ~port "/metrics" with
        | Ok (200, body) ->
          Alcotest.(check string) ("serves after " ^ what) expected body
        | Ok (code, _) -> Alcotest.failf "after %s: HTTP %d" what code
        | Error e -> Alcotest.failf "after %s: %s" what e
      in
      let rng = Random.State.make [| 14 |] in
      let random_bytes =
        String.init 8192 (fun _ -> Char.chr (Random.State.int rng 256))
      in
      let many_headers =
        "GET /metrics HTTP/1.0\r\n"
        ^ String.concat ""
            (List.init 100 (fun i -> Printf.sprintf "X-Filler-%d: %d\r\n" i i))
        ^ "\r\n"
      in
      List.iter
        (fun (what, hang_up, payload) ->
          hostile_client ~port ~hang_up payload;
          still_serves what)
        [
          ("random bytes", false, random_bytes);
          ("a 100 KB request line", false, String.make 100_000 'A');
          ("100 header lines", false, many_headers);
          ("an early hang-up", true, "GET /metrics HTTP/1.0\r\n\r\n");
        ];
      (* the hung-up connection's handler runs concurrently: give it time
         to write into the reset socket, then check the listener again *)
      Unix.sleepf 0.2;
      still_serves "the hung-up response was written")

(* A client that connects and never sends a byte: the listener closes it
   once its read timeout lapses, and a scrape meanwhile is unaffected. *)
let test_scrape_silent_client_timed_out () =
  let reg = Registry.create () in
  Metric.Counter.incr (Registry.counter reg "scrape.silent");
  let srv = Dmx_net.Scrape.start ~port:0 (fun () -> Registry.snapshot reg) in
  Fun.protect
    ~finally:(fun () -> Dmx_net.Scrape.stop srv)
    (fun () ->
      let port = Dmx_net.Scrape.port srv in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
          let t0 = Unix.gettimeofday () in
          (match Dmx_net.Scrape.http_get ~port "/metrics" with
          | Ok (200, body) ->
            Alcotest.(check string) "concurrent scrape"
              (Export.prometheus (Registry.snapshot reg))
              body
          | Ok (code, _) -> Alcotest.failf "concurrent scrape: HTTP %d" code
          | Error e -> Alcotest.failf "concurrent scrape: %s" e);
          (* bounded wait of our own, so a regression fails instead of
             hanging the suite *)
          let limit = Dmx_net.Scrape.read_timeout +. 2.0 in
          Unix.setsockopt_float fd SO_RCVTIMEO limit;
          let closed =
            match Unix.read fd (Bytes.create 16) 0 16 with
            | 0 -> true
            | _ -> false
            | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> false
            | exception Unix.Unix_error (ECONNRESET, _, _) -> true
          in
          let waited = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "server closed the silent client (after %.2f s)"
               waited)
            true closed;
          Alcotest.(check bool) "within the read timeout, plus slack" true
            (waited < limit)))

(* ---- sim-twin determinism: the snapshot is a function of the seed ---- *)

let sim_metrics_export seed =
  let cfg =
    {
      (Dmx_service.Sim_swarm.default ~n:4) with
      Dmx_service.Sim_swarm.clients = 16;
      rounds = 2;
      seed;
    }
  in
  match Dmx_service.Sim_swarm.run_named cfg with
  | Error e -> Alcotest.failf "sim-swarm: %s" e
  | Ok o ->
    Export.json
      (Snapshot.merge_all
         (o.Dmx_service.Swarm.driver_snapshot
         :: Array.to_list o.Dmx_service.Swarm.snapshots))

let test_sim_snapshot_deterministic () =
  let a = sim_metrics_export 7 and b = sim_metrics_export 7 in
  Alcotest.(check bool) "byte-identical export for equal seeds" true (a = b);
  Alcotest.(check bool)
    "acquire latency histogram present" true
    (let sub = "swarm.acquire_latency" in
     let n = String.length sub and len = String.length a in
     let rec go i = i + n <= len && (String.sub a i n = sub || go (i + 1)) in
     go 0);
  let c = sim_metrics_export 8 in
  Alcotest.(check bool) "different seed, different metrics" true (a <> c)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~verbose:false) tests

let suite =
  qsuite
    [
      prop_hist_conservation;
      prop_hist_bucketing;
      prop_hist_quantile_monotone;
      prop_hist_quantile_band;
      prop_merge_comm;
      prop_merge_assoc;
      prop_diff_inverts_merge;
    ]
  @ [
      Alcotest.test_case "diff drops older-only series" `Quick
        test_diff_drops_older_only;
      Alcotest.test_case "histogram merge adds bucketwise" `Quick
        test_histogram_merge;
      Alcotest.test_case "labeled family resolves per label set" `Quick
        test_registry_family;
      Alcotest.test_case "kind clash rejected" `Quick test_registry_kind_clash;
      Alcotest.test_case "probes polled at snapshot time" `Quick
        test_probe_polled_at_snapshot;
      Alcotest.test_case "prometheus export golden" `Quick
        test_prometheus_golden;
      Alcotest.test_case "json export golden + round-trip" `Quick
        test_json_golden_roundtrip;
      Alcotest.test_case "scrape endpoint round-trip" `Quick
        test_scrape_roundtrip;
      Alcotest.test_case "scrape survives hostile clients" `Quick
        test_scrape_hostile_clients;
      Alcotest.test_case "scrape closes a silent client" `Quick
        test_scrape_silent_client_timed_out;
      Alcotest.test_case "sim twin metrics bit-reproducible" `Quick
        test_sim_snapshot_deterministic;
    ]
