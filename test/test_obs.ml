open Helpers
open Bbng_core
module Counter = Bbng_obs.Counter
module Span = Bbng_obs.Span
module Sink = Bbng_obs.Sink
module Json = Bbng_obs.Json
module Histogram = Bbng_obs.Histogram
module Gcstats = Bbng_obs.Gcstats
module Trace_export = Bbng_obs.Trace_export
module Live_view = Bbng_obs.Live_view
module Stats = Bbng_obs.Stats

(* --- counters --- *)

let test_counter_basics () =
  let c = Counter.make "test.obs.basics" in
  let base = Counter.get c in
  Counter.bump c;
  Counter.add c 41;
  check_int "bump + add" (base + 42) (Counter.get c);
  let c' = Counter.make "test.obs.basics" in
  check_int "make is idempotent" (Counter.get c) (Counter.get c');
  check_int "find by name" (Counter.get c) (Counter.find "test.obs.basics");
  check_int "unknown name reads 0" 0 (Counter.find "test.obs.no-such-counter")

let test_counter_monotonic_under_parallel () =
  (* n concurrent bumps from Parallel.map workers lose nothing *)
  let c = Counter.make "test.obs.parallel-bumps" in
  let base = Counter.get c in
  let n = 10_000 in
  ignore (Parallel.map ~domains:4 ~n (fun _ -> Counter.bump c));
  check_int "every bump counted" (base + n) (Counter.get c)

let test_counter_snapshot_sorted () =
  ignore (Counter.make "test.obs.zzz");
  ignore (Counter.make "test.obs.aaa");
  let names = List.map fst (Counter.snapshot ()) in
  check_true "snapshot sorted" (List.sort compare names = names);
  check_true "registered names present"
    (List.mem "test.obs.zzz" names && List.mem "test.obs.aaa" names)

(* --- spans --- *)

let with_spans f =
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) f

let span_stat name =
  match List.assoc_opt name (Span.snapshot ()) with
  | Some s -> s
  | None -> Alcotest.failf "span %S not recorded" name

let test_span_nesting () =
  with_spans (fun () ->
      Span.reset_all ();
      Span.with_ "test.outer" (fun () ->
          Span.with_ "test.inner" (fun () -> Unix.sleepf 0.002));
      let outer = span_stat "test.outer" and inner = span_stat "test.inner" in
      check_int "outer count" 1 outer.Span.count;
      check_int "inner count" 1 inner.Span.count;
      check_true "inner took measurable time" (inner.Span.total_ns > 0);
      check_true "outer encloses inner"
        (outer.Span.total_ns >= inner.Span.total_ns);
      check_true "max <= total for a single span"
        (outer.Span.max_ns <= outer.Span.total_ns))

let test_span_unbalanced_close () =
  with_spans (fun () ->
      Span.reset_all ();
      let h = Span.enter "test.unbalanced" in
      Span.exit h;
      Span.exit h;
      (* double close *)
      let s = span_stat "test.unbalanced" in
      check_int "double close records once" 1 s.Span.count)

let test_span_disabled_is_inert () =
  Span.set_enabled false;
  Span.reset_all ();
  let h = Span.enter "test.disabled" in
  Span.exit h;
  ignore (Span.with_ "test.disabled" (fun () -> 7));
  check_true "nothing recorded while disabled"
    (List.assoc_opt "test.disabled" (Span.snapshot ()) = None)

let test_span_records_on_raise () =
  with_spans (fun () ->
      Span.reset_all ();
      (try Span.with_ "test.raising" (fun () -> failwith "boom")
       with Failure _ -> ());
      check_int "span closed despite raise" 1 (span_stat "test.raising").Span.count)

(* --- JSON emitter + parser --- *)

let test_json_escape_roundtrip () =
  let nasty = "quote:\" backslash:\\ newline:\n tab:\t ctrl:\001 end" in
  let rendered = Json.to_string (Json.Str nasty) in
  check_true "single line" (not (String.contains rendered '\n'));
  (match Json.of_string rendered with
  | Json.Str s -> Alcotest.(check string) "string round-trips" nasty s
  | _ -> Alcotest.fail "expected a string");
  let v =
    Json.Obj
      [
        ("int", Json.Int (-42));
        ("float", Json.Float 1.5);
        ("bool", Json.Bool true);
        ("null", Json.Null);
        ("list", Json.List [ Json.Int 1; Json.Str "a\\b" ]);
      ]
  in
  check_true "object round-trips" (Json.of_string (Json.to_string v) = v)

let test_json_rejects_garbage () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  rejects "";
  rejects "{";
  rejects "\"unterminated";
  rejects "{\"a\":1,}";
  rejects "[1 2]";
  rejects "123 trailing"

let test_json_error_paths () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" s
  in
  (* truncated input, cut at every structural position *)
  rejects "{\"a\":";
  rejects "{\"a\"";
  rejects "[1,";
  rejects "[";
  rejects "tru";
  rejects "nul";
  rejects "-";
  rejects "1.";
  List.iter
    (fun full ->
      for cut = 1 to String.length full - 1 do
        let prefix = String.sub full 0 cut in
        match Json.of_string prefix with
        | exception Json.Parse_error _ -> ()
        | _ ->
            (* some prefixes are themselves valid ("123" of "1234"),
               but never for this nested-object input *)
            Alcotest.failf "accepted truncated %S" prefix
      done)
    [ "{\"k\":[1,{\"x\":\"y\"}],\"b\":null}" ];
  (* bad escapes *)
  rejects "\"\\q\"";
  rejects "\"\\u12\"";
  rejects "\"\\u12G4\"";
  rejects "\"\\";
  (* trailing garbage *)
  rejects "{} {}";
  rejects "null,";
  rejects "[1]x";
  (* deep nesting fails cleanly with Parse_error, not Stack_overflow *)
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  rejects (deep 100_000);
  (match Json.of_string (deep 100) with
  | _ -> ()
  | exception e ->
      Alcotest.failf "rejected 100-deep nesting: %s" (Printexc.to_string e))

(* --- histograms --- *)

let test_histogram_basics () =
  let h = Histogram.unregistered "test.hist.basics" in
  check_int "empty count" 0 (Histogram.count h);
  check_true "empty quantile is 0" (Histogram.quantile h 0.5 = 0.);
  List.iter (Histogram.record h) [ 0; 1; 2; 3; 100; 7 ];
  check_int "count" 6 (Histogram.count h);
  check_int "total" 113 (Histogram.total h);
  check_int "max exact" 100 (Histogram.max_value h);
  Histogram.record h (-5);
  check_int "negative clamps to 0" 7 (Histogram.count h);
  check_int "clamped total" 113 (Histogram.total h);
  check_true "quantiles monotone in q"
    (Histogram.quantile h 0.5 <= Histogram.quantile h 0.9
    && Histogram.quantile h 0.9 <= Histogram.quantile h 0.99);
  check_true "quantile bounded by max"
    (Histogram.quantile h 0.99 <= float_of_int (Histogram.max_value h));
  let h2 = Histogram.make "test.hist.registry" in
  let h2' = Histogram.make "test.hist.registry" in
  Histogram.record h2 5;
  check_int "make is idempotent" (Histogram.count h2) (Histogram.count h2');
  check_true "find by name" (Histogram.find "test.hist.registry" <> None);
  check_true "snapshot sorted"
    (let names = List.map fst (Histogram.snapshot ()) in
     List.sort compare names = names)

(* Quantile estimates must be within a factor of two of the exact
   sample quantile: estimate and true value share a power-of-two
   bucket. *)
let test_histogram_quantile_vs_brute () =
  List.iter
    (fun seed ->
      let st = rng seed in
      let n = 500 + Random.State.int st 1500 in
      let h = Histogram.unregistered "test.hist.brute" in
      let values =
        Array.init n (fun _ ->
            (* mix scales so many buckets are occupied *)
            match Random.State.int st 3 with
            | 0 -> Random.State.int st 8
            | 1 -> Random.State.int st 1_000
            | _ -> Random.State.int st 1_000_000)
      in
      Array.iter (Histogram.record h) values;
      let sorted = Array.copy values in
      Array.sort compare sorted;
      List.iter
        (fun q ->
          let rank = q *. float_of_int (n - 1) in
          let true_v = float_of_int sorted.(int_of_float rank) in
          let est = Histogram.quantile h q in
          let ok =
            est >= (true_v /. 2.) -. 1. && est <= (2. *. true_v) +. 1.
          in
          if not ok then
            Alcotest.failf
              "seed %d q %.2f: estimate %.1f not within 2x of true %.1f" seed
              q est true_v)
        [ 0.; 0.25; 0.5; 0.9; 0.99; 1. ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_histogram_parallel_record () =
  let h = Histogram.make "test.hist.parallel" in
  Histogram.reset h;
  let n = 10_000 in
  ignore (Parallel.map ~domains:4 ~n (fun i -> Histogram.record h i));
  check_int "every record counted" n (Histogram.count h);
  check_int "max exact under contention" (n - 1) (Histogram.max_value h);
  check_int "total exact under contention" (n * (n - 1) / 2) (Histogram.total h)

(* --- GC telemetry --- *)

let test_gcstats_delta () =
  let before = Gcstats.capture () in
  let junk = ref [] in
  for i = 0 to 10_000 do
    junk := (i, string_of_int i) :: !junk
  done;
  ignore (Sys.opaque_identity !junk);
  let d = Gcstats.since before in
  check_true "allocation shows up as minor words" (d.Gcstats.minor_words > 0.);
  check_true "collections never go backwards" (d.Gcstats.minor_collections >= 0);
  match Gcstats.to_json d with
  | Json.Obj fields ->
      List.iter
        (fun k ->
          check_true (k ^ " present") (List.mem_assoc k fields))
        [
          "minor_words"; "major_words"; "promoted_words"; "minor_collections";
          "major_collections"; "heap_words";
        ]
  | _ -> Alcotest.fail "gc delta renders as an object"

(* --- JSONL sink --- *)

let test_jsonl_one_event_per_line () =
  let file = Filename.temp_file "bbng_obs" ".jsonl" in
  let oc = open_out file in
  Sink.set (Sink.Jsonl oc);
  Fun.protect
    ~finally:(fun () ->
      Sink.set Sink.Null;
      close_out_noerr oc;
      Sys.remove file)
    (fun () ->
      Sink.emit "test.event"
        [ ("text", Json.Str "tricky \"quoted\\path\"\nline2"); ("k", Json.Int 3) ];
      Sink.emit "test.event" [ ("step", Json.Int 2) ];
      Sink.set Sink.Null;
      let ic = open_in file in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_int "one event per line" 2 (List.length lines);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Json.Obj fields ->
              check_true "event field first"
                (match fields with ("event", Json.Str "test.event") :: _ -> true | _ -> false)
          | _ -> Alcotest.fail "line is not an object")
        lines;
      match Json.member "text" (Json.of_string (List.nth lines 0)) with
      | Some (Json.Str s) ->
          Alcotest.(check string) "escaping round-trips through the sink"
            "tricky \"quoted\\path\"\nline2" s
      | _ -> Alcotest.fail "text field missing")

let read_lines file =
  let ic = open_in file in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

let test_sink_scoped_restores () =
  let file = Filename.temp_file "bbng_obs" ".jsonl" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove file)
    (fun () ->
      check_false "inactive before" (Sink.active ());
      Sink.scoped (Sink.Jsonl oc) (fun () ->
          check_true "active inside the scope" (Sink.active ());
          Sink.emit "scoped.event" []);
      check_false "restored after" (Sink.active ());
      Sink.emit "after.event" [] (* must go nowhere *);
      (* scoped flushes on exit, so the event is on disk already *)
      check_int "exactly the scoped event" 1 (List.length (read_lines file)));
  (* the scope also restores on raise *)
  let raised =
    match Sink.scoped Sink.Null (fun () -> failwith "boom") with
    | () -> false
    | exception Failure _ -> true
  in
  check_true "exception propagates" raised;
  check_false "restored after raise" (Sink.active ())

let test_jsonl_buffered_until_milestone () =
  let file = Filename.temp_file "bbng_obs" ".jsonl" in
  let oc = open_out file in
  Sink.set (Sink.Jsonl oc);
  Fun.protect
    ~finally:(fun () ->
      Sink.set Sink.Null;
      close_out_noerr oc;
      Sys.remove file)
    (fun () ->
      Sink.emit "dynamics.step" [ ("step", Json.Int 1) ];
      (* ordinary events may sit in the channel buffer... *)
      Sink.flush_all ();
      check_int "flush_all makes the prefix visible" 1
        (List.length (read_lines file));
      Sink.emit "dynamics.step" [ ("step", Json.Int 2) ];
      Sink.emit "dynamics.outcome" [ ("outcome", Json.Str "converged") ];
      (* ...but a milestone event flushes without any explicit call:
         an interrupted --report still ends on a complete run *)
      check_int "dynamics.outcome is a flush milestone" 3
        (List.length (read_lines file)))

let test_certificate_envelope_roundtrip () =
  let module C = Bbng_obs.Certificate in
  let art =
    C.make ~kind:"bbng.test-artifact"
      [ ("payload", Json.Int 42); ("name", Json.Str "x") ]
  in
  check_int "format version recorded" C.format_version art.C.format;
  (match C.of_json (C.to_json art) with
  | Ok art' ->
      Alcotest.(check string) "kind survives" "bbng.test-artifact" art'.C.kind;
      check_true "payload survives" (C.field "payload" art' = Some (Json.Int 42))
  | Error msg -> Alcotest.failf "round trip: %s" msg);
  (match C.of_json (Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-object accepted");
  let file = Filename.temp_file "bbng_cert" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      C.write file art;
      match C.read file with
      | Ok art' -> Alcotest.(check string) "file round trip" art.C.kind art'.C.kind
      | Error msg -> Alcotest.failf "read: %s" msg)

let test_replay_parses_runs () =
  let ev name fields = Json.Obj (("event", Json.Str name) :: fields) in
  let events =
    [
      ev "run.meta" [];
      ev "dynamics.start"
        [ ("rule", Json.Str "first-swap"); ("version", Json.Str "SUM");
          ("budgets", Json.List [ Json.Int 1; Json.Int 1 ]);
          ("profile", Json.Str "1;0"); ("seed", Json.Int 9) ];
      ev "dynamics.step"
        [ ("step", Json.Int 1); ("player", Json.Int 0);
          ("old_cost", Json.Int 3); ("new_cost", Json.Int 2);
          ("social_cost", Json.Int 2);
          ("old_targets", Json.List [ Json.Int 1 ]);
          ("new_targets", Json.List [ Json.Int 1 ]) ];
      ev "dynamics.outcome"
        [ ("outcome", Json.Str "converged"); ("steps", Json.Int 1) ];
      ev "dynamics.start" [ ("rule", Json.Str "exact-best") ];
      ev "dynamics.step"
        [ ("step", Json.Int 1); ("player", Json.Int 1);
          ("old_cost", Json.Int 5); ("new_cost", Json.Int 4);
          ("social_cost", Json.Int 4) ];
      (* second run interrupted: no outcome *)
    ]
  in
  match Bbng_obs.Replay.runs_of_events events with
  | [ complete; interrupted ] ->
      Alcotest.(check (option string))
        "rule" (Some "first-swap") complete.Bbng_obs.Replay.rule;
      check_true "meta keeps non-structural fields"
        (List.assoc_opt "seed" complete.Bbng_obs.Replay.meta = Some (Json.Int 9));
      check_int "steps parsed" 1 (List.length complete.Bbng_obs.Replay.steps);
      check_true "outcome closed"
        (complete.Bbng_obs.Replay.run_outcome <> None);
      check_true "trailing run kept open"
        (interrupted.Bbng_obs.Replay.run_outcome = None);
      let s = List.hd interrupted.Bbng_obs.Replay.steps in
      check_true "pre-audit step has no targets"
        (s.Bbng_obs.Replay.old_targets = None
        && s.Bbng_obs.Replay.new_targets = None)
  | runs -> Alcotest.failf "expected 2 runs, got %d" (List.length runs)

let test_summarize_dynamics_section () =
  let ev name fields = Json.Obj (("event", Json.Str name) :: fields) in
  let events =
    List.concat_map
      (fun (rule, outcome, steps) ->
        [
          ev "dynamics.start" [ ("rule", Json.Str rule) ];
          ev "dynamics.outcome"
            [ ("rule", Json.Str rule); ("outcome", Json.Str outcome);
              ("steps", Json.Int steps) ];
        ])
      [ ("exact-best", "converged", 3); ("exact-best", "converged", 12);
        ("first-swap", "cycle", 40) ]
  in
  let file = Filename.temp_file "bbng_obs" ".txt" in
  let oc = open_out file in
  Bbng_obs.Trace_export.summarize events oc;
  close_out oc;
  let text = String.concat "\n" (read_lines file) in
  Sys.remove file;
  let contains needle =
    let nl = String.length needle and hl = String.length text in
    let rec go i = i + nl <= hl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "aggregates runs" (contains "3 recorded runs");
  check_true "tallies rule/outcome" (contains "exact-best/converged");
  check_true "steps stats present" (contains "steps:")

(* Pinned output of the one fold over a recording: for each committed
   recording golden/X.jsonl, golden/X.report.txt is `bbng_cli report`'s
   output (summarize plus the CLI's digest line) and golden/X.top.txt is
   `bbng_cli top --once --no-clear`'s frame, both captured from the
   repository root. *)
let test_report_and_top_pinned () =
  let slurp file = In_channel.with_open_bin file In_channel.input_all in
  List.iter
    (fun base ->
      let golden ext = Filename.concat "golden" (base ^ ext) in
      let source = "test/golden/" ^ base ^ ".jsonl" in
      let events, _ = In_channel.with_open_bin (golden ".jsonl") Trace_export.read_events in
      let file = Filename.temp_file "bbng_obs" ".txt" in
      Out_channel.with_open_bin file (Trace_export.summarize events);
      let report =
        Printf.sprintf "%sreport digest: %s (%s)\n" (slurp file)
          (Digest.to_hex (Digest.file (golden ".jsonl"))) source
      in
      Sys.remove file;
      Alcotest.(check string) (base ^ ": report") (slurp (golden ".report.txt")) report;
      let st = Live_view.create_state () in
      ignore (Live_view.poll (Live_view.open_tail (golden ".jsonl")) st);
      Alcotest.(check string) (base ^ ": top") (slurp (golden ".top.txt"))
        (Live_view.render st ~source))
    [ "DYN_rr_best_unit8_max"; "DYN_rr_first_swap_n12_sum"; "REPORT_dyn_b2x10_seed7" ]

let test_sink_active () =
  check_false "no sink by default here" (Sink.active ());
  Sink.add Sink.Null;
  check_false "Null never counts as active" (Sink.active ())

(* --- span histograms + GC attribution --- *)

let test_span_quantiles_and_gc () =
  with_spans (fun () ->
      Span.reset_all ();
      for _ = 1 to 20 do
        Span.with_ "test.span.dist" (fun () ->
            ignore (Sys.opaque_identity (Array.make 1000 0)))
      done;
      let s = span_stat "test.span.dist" in
      check_int "count" 20 s.Span.count;
      check_true "p50 <= p99" (s.Span.p50_ns <= s.Span.p99_ns);
      check_true "p99 <= max"
        (s.Span.p99_ns <= float_of_int s.Span.max_ns +. 1.);
      check_true "quantiles positive" (s.Span.p50_ns > 0.);
      check_true "allocation attributed to span" (s.Span.minor_words > 0.))

let test_span_emits_event_when_sinked () =
  let file = Filename.temp_file "bbng_obs" ".jsonl" in
  let oc = open_out file in
  with_spans (fun () ->
      Span.reset_all ();
      Sink.set (Sink.Jsonl oc);
      Fun.protect
        ~finally:(fun () ->
          Sink.set Sink.Null;
          close_out_noerr oc;
          Sys.remove file)
        (fun () ->
          Span.with_ "test.span.event" (fun () -> Unix.sleepf 0.001);
          Sink.set Sink.Null;
          close_out oc;
          let ic = open_in file in
          let events, skipped =
            Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
                Trace_export.read_events ic)
          in
          check_int "no skipped lines" 0 skipped;
          match
            List.find_opt
              (fun j ->
                Json.member "event" j = Some (Json.Str "span")
                && Json.member "name" j = Some (Json.Str "test.span.event"))
              events
          with
          | None -> Alcotest.fail "span close did not emit an event"
          | Some j -> (
              check_true "event is timestamped"
                (Json.member "ts_us" j <> None);
              match Json.member "dur_us" j with
              | Some (Json.Float d) ->
                  check_true "duration covers the sleep" (d >= 500.)
              | _ -> Alcotest.fail "span event without dur_us")))

(* --- chrome trace export --- *)

let test_trace_export_chrome () =
  let mk name fields =
    Json.Obj (("event", Json.Str name) :: ("ts_us", Json.Float 100.) :: fields)
  in
  let events =
    [
      mk "dynamics.start" [ ("players", Json.Int 4) ];
      mk "span"
        [ ("name", Json.Str "equilibrium.certify_player");
          ("dur_us", Json.Float 40.) ];
      mk "dynamics.step"
        [ ("step", Json.Int 1); ("social_cost", Json.Int 12) ];
      mk "run.summary" [];
    ]
  in
  let trace = Trace_export.to_chrome events in
  (* round-trips through our own parser *)
  let trace = Json.of_string (Json.to_string trace) in
  match Json.member "traceEvents" trace with
  | Some (Json.List records) ->
      check_true "has records" (List.length records >= 5);
      List.iter
        (fun r ->
          check_true "name present"
            (match Json.member "name" r with Some (Json.Str _) -> true | _ -> false);
          check_true "ph present"
            (match Json.member "ph" r with Some (Json.Str _) -> true | _ -> false);
          check_true "ts present" (Json.member "ts" r <> None);
          check_true "dur present" (Json.member "dur" r <> None))
        records;
      let slice =
        List.find_opt
          (fun r -> Json.member "ph" r = Some (Json.Str "X"))
          records
      in
      (* %.12g prints whole floats without a decimal point, so a
         round-tripped 60. comes back as Int 60: compare numerically *)
      let num field r =
        match Json.member field r with
        | Some (Json.Int i) -> Some (float_of_int i)
        | Some (Json.Float f) -> Some f
        | _ -> None
      in
      (match slice with
      | Some r ->
          check_true "slice keeps the span name"
            (Json.member "name" r
            = Some (Json.Str "equilibrium.certify_player"));
          check_true "slice starts dur before its close stamp"
            (num "ts" r = Some 60.);
          check_true "slice duration" (num "dur" r = Some 40.)
      | None -> Alcotest.fail "span event did not become a complete slice");
      check_true "dynamics.step also feeds a counter track"
        (List.exists
           (fun r -> Json.member "ph" r = Some (Json.Str "C"))
           records)
  | _ -> Alcotest.fail "missing traceEvents"

let test_trace_read_events_skips_garbage () =
  let file = Filename.temp_file "bbng_obs" ".jsonl" in
  let oc = open_out file in
  output_string oc "start: 1,2;0;0 (diameter 2)\n";
  output_string oc "{\"event\":\"dynamics.step\",\"ts_us\":1.5,\"step\":1}\n";
  output_string oc "not json at all {\n";
  output_string oc "{\"no_event_field\":true}\n";
  output_string oc "{\"event\":\"run.summary\",\"ts_us\":2.5}\n";
  close_out oc;
  let ic = open_in file in
  let events, skipped =
    Fun.protect ~finally:(fun () -> close_in_noerr ic; Sys.remove file)
      (fun () -> Trace_export.read_events ic)
  in
  check_int "two real events" 2 (List.length events);
  check_int "three skipped lines" 3 skipped

(* --- stats rendering --- *)

let test_stats_print_ordering () =
  (* --stats sorts counters by count and spans by total time, both
     descending, so the hot path is the first line read *)
  let big = Counter.make "test.stats.zz-big" in
  let small = Counter.make "test.stats.aa-small" in
  Counter.add big (1_000_000 - Counter.get big);
  Counter.add small (1 - Counter.get small);
  with_spans (fun () ->
      Span.reset_all ();
      Span.with_ "test.stats.slow" (fun () -> Unix.sleepf 0.005);
      Span.with_ "test.stats.fast" (fun () -> ());
      let file = Filename.temp_file "bbng_obs" ".stats" in
      let oc = open_out file in
      Stats.print oc;
      close_out oc;
      let ic = open_in file in
      let text =
        Fun.protect ~finally:(fun () -> close_in_noerr ic; Sys.remove file)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let index sub =
        let len = String.length sub in
        let rec find i =
          if i + len > String.length text then None
          else if String.sub text i len = sub then Some i
          else find (i + 1)
        in
        find 0
      in
      let pos name =
        match index name with
        | Some i -> i
        | None -> Alcotest.failf "%S missing from --stats output" name
      in
      check_true "bigger counter prints first"
        (pos "test.stats.zz-big" < pos "test.stats.aa-small");
      check_true "slower span prints first"
        (pos "test.stats.slow" < pos "test.stats.fast");
      check_true "p50/p99 column header present"
        (index "p50 ms / p99 ms" <> None);
      check_true "gc delta line present" (index "gc: minor" <> None))

let test_spans_json_name_sorted () =
  with_spans (fun () ->
      Span.reset_all ();
      Span.with_ "test.zz" (fun () -> ());
      Span.with_ "test.aa" (fun () -> Unix.sleepf 0.001);
      match Stats.spans_json () with
      | Json.Obj fields ->
          let names = List.map fst fields in
          check_true "JSON rendering stays name-sorted for stable diffs"
            (List.sort compare names = names);
          List.iter
            (fun (_, sp) ->
              List.iter
                (fun k -> check_true (k ^ " present") (Json.member k sp <> None))
                [ "count"; "total_ms"; "max_ms"; "p50_ms"; "p90_ms"; "p99_ms";
                  "minor_words" ])
            fields
      | _ -> Alcotest.fail "spans_json is an object")

let test_summary_fields_provenance () =
  let fields = Stats.summary_fields () in
  check_true "argv recorded"
    (match List.assoc_opt "argv" fields with
    | Some (Json.List (_ :: _)) -> true
    | _ -> false);
  check_true "ocaml version recorded"
    (List.assoc_opt "ocaml_version" fields
    = Some (Json.Str Sys.ocaml_version));
  check_true "word size recorded"
    (List.assoc_opt "word_size" fields = Some (Json.Int Sys.word_size));
  check_true "gc delta in summary" (List.mem_assoc "gc" fields);
  check_true "histograms in summary" (List.mem_assoc "histograms" fields)

(* --- span GC words are the calling domain's own --- *)

let test_span_ignores_other_domains_gc () =
  with_spans (fun () ->
      Span.reset_all ();
      let stop = Atomic.make false and running = Atomic.make false in
      let hog =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              Atomic.set running true;
              ignore (Sys.opaque_identity (Array.make 100_000 0))
            done)
      in
      Fun.protect
        ~finally:(fun () ->
          Atomic.set stop true;
          Domain.join hog)
        (fun () ->
          while not (Atomic.get running) do
            Domain.cpu_relax ()
          done;
          (* start from an empty minor heap, so a collection the other
             domain forces mid-span has nothing of ours to promote *)
          Gc.minor ();
          Span.with_ "test.span.idle" (fun () -> Unix.sleepf 0.02));
      let major = (span_stat "test.span.idle").Span.major_words in
      check_true
        (Printf.sprintf "idle span charged %.0f major words" major)
        (major < 1000.))

let test_span_counts_own_major_words () =
  with_spans (fun () ->
      Span.reset_all ();
      Span.with_ "test.span.big" (fun () ->
          ignore (Sys.opaque_identity (Array.make 1_000_000 0)));
      let major = (span_stat "test.span.big").Span.major_words in
      check_true
        (Printf.sprintf "big allocation charged %.0f major words" major)
        (major >= 1e6))

let suite =
  [
    case "counter basics" test_counter_basics;
    case "counter monotonic under Parallel.map"
      test_counter_monotonic_under_parallel;
    case "counter snapshot sorted" test_counter_snapshot_sorted;
    case "span nesting" test_span_nesting;
    case "span unbalanced close" test_span_unbalanced_close;
    case "span disabled is inert" test_span_disabled_is_inert;
    case "span closes on raise" test_span_records_on_raise;
    case "json escape round-trip" test_json_escape_roundtrip;
    case "json rejects garbage" test_json_rejects_garbage;
    case "json error paths" test_json_error_paths;
    case "histogram basics" test_histogram_basics;
    case "histogram quantiles vs brute force" test_histogram_quantile_vs_brute;
    case "histogram parallel recording" test_histogram_parallel_record;
    case "gcstats delta" test_gcstats_delta;
    case "jsonl sink one event per line" test_jsonl_one_event_per_line;
    case "sink scoped install/restore" test_sink_scoped_restores;
    case "jsonl buffering and milestones" test_jsonl_buffered_until_milestone;
    case "certificate envelope round trip" test_certificate_envelope_roundtrip;
    case "replay run parsing" test_replay_parses_runs;
    case "summarize aggregates dynamics runs" test_summarize_dynamics_section;
    case "sink activity" test_sink_active;
    case "span quantiles and gc attribution" test_span_quantiles_and_gc;
    case "span emits event when sinked" test_span_emits_event_when_sinked;
    case "chrome trace export" test_trace_export_chrome;
    case "trace reader skips garbage lines" test_trace_read_events_skips_garbage;
    case "stats print ordering" test_stats_print_ordering;
    case "spans json name-sorted" test_spans_json_name_sorted;
    case "run.summary provenance" test_summary_fields_provenance;
    case "span ignores other domains' allocation"
      test_span_ignores_other_domains_gc;
    case "span counts its own major allocation"
      test_span_counts_own_major_words;
    case "report and top pinned on recordings" test_report_and_top_pinned;
  ]
