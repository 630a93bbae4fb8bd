(* Live telemetry: the Counter/Gauge/Histogram registries under
   concurrent writers, the OpenMetrics exposition round trip, progress
   heartbeats, and the viewer behind `bbng_cli top`.

   The load-bearing properties: per-domain counter cells aggregate
   exactly (a multi-domain total equals the single-domain total for the
   same work), the renderer and parser agree byte-for-byte (escaping,
   cumulative buckets), heartbeats land in the report stream without
   confusing the replay checker, and the tail parser survives any
   truncation a SIGKILL can produce. *)

open Helpers
open Bbng_core
module Counter = Bbng_obs.Counter
module Gauge = Bbng_obs.Gauge
module Histogram = Bbng_obs.Histogram
module Openmetrics = Bbng_obs.Openmetrics
module Om_oracle = Bbng_oracle.Openmetrics
module Progress = Bbng_obs.Progress
module Live_view = Bbng_obs.Live_view
module Sink = Bbng_obs.Sink
module Json = Bbng_obs.Json
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- registries under concurrent writers --- *)

let test_counter_find_or_create () =
  let c = Counter.make "test.metrics.basics" in
  let base = Counter.get c in
  Counter.bump c;
  Counter.add c 41;
  check_int "bump + add" (base + 42) (Counter.get c);
  let c' = Counter.make "test.metrics.basics" in
  check_int "same name, same cells" (base + 42) (Counter.get c');
  Counter.bump c';
  check_int "bump through the alias counts" (base + 43) (Counter.get c);
  check_int "find sums the cells" (base + 43) (Counter.find "test.metrics.basics")

(* totals recorded from many domains aggregate to exactly what one
   domain records for the same work *)
let test_sharded_equals_unsharded =
  qcheck ~count:20 "multi-domain total == single-domain total"
    QCheck.(int_range 1 2_000)
    (fun n ->
      let seq = Counter.make "test.metrics.seq"
      and par = Counter.make "test.metrics.par" in
      let seq0 = Counter.get seq and par0 = Counter.get par in
      for _ = 1 to n do
        Counter.bump seq
      done;
      ignore (Parallel.map ~domains:4 ~n (fun _ -> Counter.bump par));
      Counter.get seq - seq0 = n && Counter.get par - par0 = n)

let test_histogram_multi_domain_aggregation () =
  let h = Histogram.make "test.metrics.hist_par" in
  let count0 = Histogram.count h and total0 = Histogram.total h in
  let n = 500 in
  ignore (Parallel.map ~domains:4 ~n (fun i -> Histogram.record h (i + 1)));
  check_int "every observation counted" n (Histogram.count h - count0);
  check_int "sum aggregates exactly" (n * (n + 1) / 2) (Histogram.total h - total0);
  check_int "bucket counts cover the count" (Histogram.count h)
    (Array.fold_left ( + ) 0 (Histogram.bucket_counts h))

let test_gauge_labels () =
  let g = Gauge.make ~labels:[ ("task", "a") ] "test.metrics.g" in
  let g' = Gauge.make ~labels:[ ("task", "b") ] "test.metrics.g" in
  Gauge.set g 1.5;
  Gauge.set_int g' 3;
  check_true "labelled gauges are distinct cells"
    (Gauge.value g = 1.5 && Gauge.value g' = 3.0);
  let g'' = Gauge.make ~labels:[ ("task", "a") ] "test.metrics.g" in
  Gauge.set g'' 2.0;
  check_true "same (name, labels) is the same cell" (Gauge.value g = 2.0)

(* --- OpenMetrics exposition --- *)

let test_escape_roundtrip =
  qcheck ~count:200 "unescape ∘ escape_label_value = id" QCheck.string
    (fun s -> Om_oracle.unescape (Openmetrics.escape_label_value s) = s)

let find_family families name =
  match List.find_opt (fun f -> f.Om_oracle.fam_name = name) families with
  | Some f -> f
  | None -> Alcotest.failf "family %S missing from exposition" name

let test_render_validate_roundtrip () =
  Counter.add (Counter.make "test.metrics.rt") 5;
  let g =
    Gauge.make
      ~labels:[ ("task", "quote\" slash\\ nl\n") ]
      "test.metrics.rt_gauge"
  in
  Gauge.set g 2.5;
  let h = Histogram.make "test.metrics.rt_hist" in
  List.iter (Histogram.record h) [ 1; 10; 100; 1_000; 1_000_000 ];
  let text = Openmetrics.render () in
  check_true "ends with the EOF terminator" (contains ~needle:"# EOF" text);
  let families =
    match Om_oracle.validate text with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "rendered exposition invalid: %s" e
  in
  let cf = find_family families "bbng_test_metrics_rt" in
  check_true "counter value survives"
    (List.exists
       (fun s ->
         s.Om_oracle.value >= 5.0
         && contains ~needle:"_total" s.Om_oracle.sample_name)
       cf.Om_oracle.samples);
  let gf = find_family families "bbng_test_metrics_rt_gauge" in
  check_true "nasty label value round-trips unescaped"
    (List.exists
       (fun s ->
         List.mem_assoc "task" s.Om_oracle.labels
         && List.assoc "task" s.Om_oracle.labels = "quote\" slash\\ nl\n")
       gf.Om_oracle.samples);
  check_true "# HELP lines from other exporters still parse"
    (Result.is_ok
       (Om_oracle.validate
          "# HELP x help text\n# TYPE x counter\nx_total 1\n# EOF\n"))

let test_histogram_buckets_cumulative =
  qcheck ~count:20 "rendered histogram buckets validate as cumulative"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 0 1_000_000))
    (fun values ->
      let h = Histogram.make "test.metrics.cumul" in
      List.iter (Histogram.record h) values;
      (* validate enforces: non-decreasing in le order, +Inf == _count,
         _sum/_count present — any violation fails the property *)
      match Om_oracle.validate (Openmetrics.render ()) with
      | Ok _ -> true
      | Error _ -> false)

(* --- heartbeats --- *)

(* run [f] with a zero heartbeat interval and a JSONL sink on a temp
   file; return the recorded events *)
let with_recording f =
  let path = Filename.temp_file "bbng_metrics" ".jsonl" in
  let old = Progress.interval_ms () in
  Progress.set_interval_ms 0.;
  let result =
    Fun.protect
      ~finally:(fun () -> Progress.set_interval_ms old)
      (fun () ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Sink.scoped (Sink.Jsonl oc) f))
  in
  let ic = open_in path in
  let events, _skipped =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove path)
      (fun () -> Bbng_obs.Trace_export.read_events ic)
  in
  (result, events)

let heartbeats_of events =
  List.filter
    (fun e -> Json.member "event" e = Some (Json.Str "progress.heartbeat"))
    events

let test_heartbeat_fields () =
  let (), events =
    with_recording (fun () ->
        Progress.with_task ~total:5 "test.hb" (fun t ->
            for _ = 1 to 5 do
              Progress.step t
            done))
  in
  let beats =
    List.filter
      (fun e -> Json.member "task" e = Some (Json.Str "test.hb"))
      (heartbeats_of events)
  in
  check_true "at least one heartbeat per task" (beats <> []);
  let last = List.nth beats (List.length beats - 1) in
  check_true "final beat reports all work done"
    (Json.member "done" last = Some (Json.Int 5));
  check_true "declared total present"
    (Json.member "total" last = Some (Json.Int 5));
  check_true "rate present"
    (match Json.member "rate_per_s" last with
    | Some (Json.Float _) | Some (Json.Int _) -> true
    | _ -> false);
  check_true "embedded counter snapshot is an object"
    (match Json.member "counters" last with
    | Some (Json.Obj _) -> true
    | _ -> false)

let test_heartbeat_saturated_total () =
  (* a saturated Combinatorics estimate maps to "unknown": no
     total/pct/eta in the beats *)
  let (), events =
    with_recording (fun () ->
        Progress.with_task ~total:max_int "test.hb_sat" (fun t ->
            for _ = 1 to 3 do
              Progress.step t
            done))
  in
  let beats =
    List.filter
      (fun e -> Json.member "task" e = Some (Json.Str "test.hb_sat"))
      (heartbeats_of events)
  in
  check_true "beats still emitted" (beats <> []);
  List.iter
    (fun b ->
      check_true "no total for saturated estimates"
        (Json.member "total" b = None && Json.member "eta_s" b = None))
    beats

(* a certification declares the candidate space its audits step
   through: C(n-1, b) per player when exact, b(n-1-b) swaps per player
   under --swap *)
let test_certify_heartbeat_total () =
  let p = Strategy.of_string "2,5,8;2;3;4;5;6;7;8;9;10;" in
  let n = Strategy.n p in
  let budgets = Budget.to_array (Strategy.budgets p) in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  let last_total certifier =
    let _, events = with_recording (fun () -> certifier game p) in
    match
      List.rev
        (List.filter
           (fun e -> Json.member "task" e = Some (Json.Str "certify"))
           (heartbeats_of events))
    with
    | last :: _ -> Json.member "total" last
    | [] -> Alcotest.fail "no certify heartbeat"
  in
  let sum f = Array.fold_left (fun acc b -> acc + f b) 0 budgets in
  check_true "exact total is the sum of C(n-1, b)"
    (last_total (Equilibrium.certify_cert ?budget:None)
    = Some
        (Json.Int
           (sum (fun b ->
                Bbng_graph.Combinatorics.binomial_sat (n - 1) b))));
  check_true "swap total is the sum of b(n-1-b)"
    (last_total (Equilibrium.certify_swap_cert ?budget:None)
    = Some (Json.Int (sum (fun b -> b * (n - 1 - b)))))

let test_replay_ignores_heartbeats () =
  (* a flight recording laced with telemetry must replay untouched:
     Dynamics.run heartbeats at every step with a zero interval *)
  let b = Budget.unit_budgets 6 in
  let g = game Cost.Max b in
  let start = Strategy.random (rng 2) b in
  let outcome, events =
    with_recording (fun () ->
        Dynamics.run ~max_steps:500 g ~schedule:Schedule.Round_robin
          ~rule:Dynamics.Exact_best start)
  in
  check_true "heartbeats interleave the recording" (heartbeats_of events <> []);
  match Bbng_obs.Replay.runs_of_events events with
  | [ run ] -> (
      check_int "every applied step recorded" (Dynamics.steps outcome)
        (List.length run.Bbng_obs.Replay.steps);
      match Bbng_dynamics.Replay.check_run run with
      | Ok _ -> ()
      | Error d ->
          Alcotest.failf "telemetry broke replay at step %d: %s"
            d.Bbng_dynamics.Replay.at_step d.Bbng_dynamics.Replay.reason)
  | runs -> Alcotest.failf "expected 1 recorded run, got %d" (List.length runs)

(* --- the top viewer --- *)

let test_feed_line_truncation_tolerant () =
  let st = Live_view.create_state () in
  (* every way a SIGKILL can tear the last line of a .partial *)
  List.iter (Live_view.feed_line st)
    [
      "";
      "   ";
      "{\"event\":\"dynamics.step\",\"ts_us\":1.0,\"step\":3";
      "not json at all";
      "{\"no_event_field\":true}";
      "{\"event\":";
      "\255\254 binary junk \000";
    ];
  check_int "nothing parsed as an event" 0 st.Live_view.events;
  (* blank lines are ignored, the five torn/garbage lines count *)
  check_int "every torn line counted" 5 st.Live_view.skipped;
  let frame = Live_view.render st ~source:"torn.jsonl.partial" in
  check_true "renderer survives an all-skip state"
    (contains ~needle:"torn.jsonl.partial" frame)

let test_tail_consumes_only_complete_lines () =
  let path = Filename.temp_file "bbng_tail" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let st = Live_view.create_state () in
      let tail = Live_view.open_tail path in
      let append s =
        let oc =
          open_out_gen [ Open_append; Open_binary ] 0o644 path
        in
        output_string oc s;
        close_out oc
      in
      append "{\"event\":\"progress.heartbeat\",\"ts_us\":1.0,\"task\":\"t\",\"done\":1}\n";
      append "{\"event\":\"progress.he";
      check_int "only the complete line is fed" 1 (Live_view.poll tail st);
      check_int "one event so far" 1 st.Live_view.events;
      check_int "half-written line stays buffered" 0 st.Live_view.skipped;
      append "artbeat\",\"ts_us\":2.0,\"task\":\"t\",\"done\":2}\n";
      check_int "finishing the line releases it" 1 (Live_view.poll tail st);
      check_int "both heartbeats folded in" 2 st.Live_view.heartbeats;
      check_false "no summary yet" (Live_view.finished st);
      append "{\"event\":\"run.summary\",\"ts_us\":3.0}\n";
      ignore (Live_view.poll tail st);
      check_true "run.summary finishes the view" (Live_view.finished st))

let test_tail_retarget_keeps_offset () =
  (* the .partial → final commit rename: same bytes, new name *)
  let partial = Filename.temp_file "bbng_retarget" ".jsonl.partial" in
  let final = Filename.chop_suffix partial ".partial" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists partial then Sys.remove partial;
      if Sys.file_exists final then Sys.remove final)
    (fun () ->
      let oc = open_out partial in
      output_string oc "{\"event\":\"dynamics.start\",\"ts_us\":1.0}\n";
      close_out oc;
      let st = Live_view.create_state () in
      let tail = Live_view.open_tail partial in
      check_int "first poll reads the prefix" 1 (Live_view.poll tail st);
      Sys.rename partial final;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 final in
      output_string oc "{\"event\":\"run.summary\",\"ts_us\":2.0}\n";
      close_out oc;
      Live_view.retarget tail final;
      check_int "retarget resumes at the old offset, not 0" 1
        (Live_view.poll tail st);
      check_int "no event replayed twice" 2 st.Live_view.events)

let suite =
  [
    case "counter find-or-create" test_counter_find_or_create;
    test_sharded_equals_unsharded;
    case "histogram aggregates across domains" test_histogram_multi_domain_aggregation;
    case "labelled gauges" test_gauge_labels;
    test_escape_roundtrip;
    case "render → validate round trip" test_render_validate_roundtrip;
    test_histogram_buckets_cumulative;
    case "heartbeat fields" test_heartbeat_fields;
    case "saturated totals suppress total/eta" test_heartbeat_saturated_total;
    case "certify heartbeat declares its scan space" test_certify_heartbeat_total;
    case "replay ignores heartbeats" test_replay_ignores_heartbeats;
    case "feed_line tolerates torn lines" test_feed_line_truncation_tolerant;
    case "tail consumes only complete lines" test_tail_consumes_only_complete_lines;
    case "retarget keeps the read offset" test_tail_retarget_keeps_offset;
  ]
