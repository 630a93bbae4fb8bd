(* Fault injection: the spec grammar, probe-point firing, and the
   crash-safety contract of the artifact writers under injected faults.
   The [Kill] action SIGKILLs the process and is exercised out of
   process by bin/fault_smoke.sh, not here. *)

open Bbng_core
open Helpers
module Fault = Bbng_obs.Fault
module Atomic_io = Bbng_obs.Atomic_io
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule

(* every test arms specs; never leak them into later suites *)
let with_faults specs f =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Ok spec -> Fault.arm spec
      | Error e -> Alcotest.failf "bad spec %S: %s" s e)
    specs;
  Fun.protect ~finally:Fault.disarm f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- spec grammar --- *)

let test_parse_specs () =
  (match Fault.parse "span.certify@raise" with
  | Ok { Fault.point = "span.certify"; action = Fault.Raise; after = 1 } -> ()
  | Ok _ -> Alcotest.fail "wrong parse of span.certify@raise"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse "sink.dynamics.step@kill@20" with
  | Ok { Fault.point = "sink.dynamics.step"; action = Fault.Kill; after = 20 } ->
      ()
  | Ok _ -> Alcotest.fail "wrong parse of kill@20"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse "artifact.commit@exit:7" with
  | Ok { Fault.action = Fault.Exit_code 7; _ } -> ()
  | Ok _ -> Alcotest.fail "wrong parse of exit:7"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse "artifact.open@delay:2.5" with
  | Ok { Fault.action = Fault.Delay_ms ms; _ } ->
      check_true "delay parsed" (ms = 2.5)
  | Ok _ -> Alcotest.fail "wrong parse of delay"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed spec %S" bad
      | Error _ -> ())
    [ ""; "point-only"; "p@boom"; "p@exit:"; "p@exit:x"; "p@kill@0"; "p@kill@x" ]

let test_hit_counting () =
  with_faults [ "probe.x@raise@3" ] (fun () ->
      check_true "armed" (Fault.armed ());
      Fault.hit "probe.x";
      Fault.hit "probe.y";
      (* a different point never consumes probe.x's countdown *)
      Fault.hit "probe.x";
      match Fault.hit "probe.x" with
      | () -> Alcotest.fail "third hit must fire"
      | exception Fault.Injected p ->
          Alcotest.(check string) "carries the point" "probe.x" p);
  check_false "disarmed in teardown" (Fault.armed ())

let test_delay_is_transparent () =
  with_faults [ "probe.slow@delay:1" ] (fun () ->
      (* fires, sleeps ~1ms, and continues — no exception *)
      Fault.hit "probe.slow";
      Fault.hit "probe.slow")

(* --- crash safety of whole-file artifacts --- *)

let test_mid_write_fault_preserves_previous_artifact () =
  let path = Filename.temp_file "bbng_fault" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Atomic_io.write_file path (fun oc -> output_string oc "{\"v\":1}\n");
      let before = read_file path in
      with_faults [ "artifact.mid_write@raise" ] (fun () ->
          match
            Atomic_io.write_file path (fun oc -> output_string oc "{\"v\":2}\n")
          with
          | () -> Alcotest.fail "mid-write fault must propagate"
          | exception Fault.Injected _ -> ());
      Alcotest.(check string) "previous artifact untouched" before
        (read_file path);
      check_false "no temp file leaked" (Sys.file_exists (Atomic_io.tmp_path path)))

let test_open_fault_never_touches_target () =
  let dir = Filename.temp_file "bbng_fault" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "fresh.json" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      with_faults [ "artifact.open@raise" ] (fun () ->
          match Atomic_io.write_file path (fun _ -> ()) with
          | () -> Alcotest.fail "open fault must propagate"
          | exception Fault.Injected _ -> ());
      check_false "target never created" (Sys.file_exists path))

(* --- crash safety of JSONL streams --- *)

(* a dynamics run recorded into a stream that a fault interrupts
   mid-flight must leave a replayable prefix in the .partial file *)
let test_faulted_stream_leaves_replayable_partial () =
  let path = Filename.temp_file "bbng_fault" ".jsonl" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () ->
      Atomic_io.discard_stream path;
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let b = Budget.unit_budgets 8 in
      let g = game Cost.Sum b in
      let start = Strategy.random (rng 4) b in
      with_faults [ "sink.dynamics.step@raise@3" ] (fun () ->
          let oc = Atomic_io.open_stream path in
          match
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () ->
                Bbng_obs.Sink.scoped (Bbng_obs.Sink.Jsonl oc) (fun () ->
                    Dynamics.run g ~schedule:Schedule.Round_robin
                      ~rule:Dynamics.Exact_best start))
          with
          | _ -> Alcotest.fail "step fault must abort the run"
          | exception Fault.Injected _ -> ());
      check_false "stream was never committed" (Sys.file_exists path);
      let partial = Atomic_io.partial_path path in
      check_true "partial prefix left behind" (Sys.file_exists partial);
      let ic = open_in partial in
      let events, skipped =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Bbng_obs.Trace_export.read_events ic)
      in
      check_int "every line parses" 0 skipped;
      match Bbng_obs.Replay.runs_of_events events with
      | [ run ] -> (
          check_true "prefix has applied steps"
            (run.Bbng_obs.Replay.steps <> []);
          match Bbng_dynamics.Replay.resume_state run with
          | Ok (_, _, steps) ->
              check_int "prefix resumes at its recorded length"
                (List.length run.Bbng_obs.Replay.steps)
                steps
          | Error d ->
              Alcotest.failf "torn prefix refused: %s"
                d.Bbng_dynamics.Replay.reason)
      | runs -> Alcotest.failf "expected 1 recorded run, got %d" (List.length runs))

(* --- the fault matrix ---
   at every raise-capable probe point touched by a certification +
   artifact write, an injected fault must leave either the untouched
   previous artifact or no artifact at all — never a torn file *)
let test_fault_matrix_over_probe_points () =
  let p = Bbng_constructions.Tripod.profile ~k:2 in
  let g = game Cost.Max (Strategy.budgets p) in
  let cert = Equilibrium.certify_cert g p in
  List.iter
    (fun point ->
      let path = Filename.temp_file "bbng_fault" ".json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          Equilibrium.write_certificate path cert;
          let before = read_file path in
          with_faults
            [ Printf.sprintf "%s@raise" point ]
            (fun () ->
              match Equilibrium.write_certificate path cert with
              | () -> Alcotest.failf "%s: fault did not fire" point
              | exception Fault.Injected _ -> ());
          Alcotest.(check string)
            (point ^ ": previous artifact intact")
            before (read_file path);
          (match Equilibrium.read_certificate path with
          | Ok cert' -> (
              match Equilibrium.verify_certificate cert' with
              | Ok () -> ()
              | Error e -> Alcotest.failf "%s: artifact no longer verifies: %s" point e)
          | Error e -> Alcotest.failf "%s: artifact unreadable: %s" point e);
          check_false
            (point ^ ": no temp leaked")
            (Sys.file_exists (Atomic_io.tmp_path path))))
    [ "artifact.open"; "artifact.mid_write" ]

let test_env_init () =
  Unix.putenv Fault.env_var "probe.env@raise";
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv Fault.env_var "";
      Fault.disarm ())
    (fun () ->
      (match Fault.init_from_env () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "env init failed: %s" e);
      check_true "armed from env" (Fault.armed ());
      (match Fault.hit "probe.env" with
      | () -> Alcotest.fail "env-armed fault must fire"
      | exception Fault.Injected _ -> ());
      Fault.disarm ();
      Unix.putenv Fault.env_var "probe@bogus";
      match Fault.init_from_env () with
      | Ok () -> Alcotest.fail "malformed env spec accepted"
      | Error _ -> ())

(* --- the distance-row engine's build probe --- *)

let test_row_build_fault_leaves_no_torn_row () =
  let b = Budget.of_list [ 2; 1; 1; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 2 |]; [| 3 |]; [||] |] in
  let c = Deviation_eval.make ~engine:Deviation_eval.Rows Cost.Sum p ~player:0 in
  with_faults [ "deveval.row_build@raise" ] (fun () ->
      match Deviation_eval.cost c [| 1; 3 |] with
      | _ -> Alcotest.fail "armed row build must raise"
      | exception Fault.Injected point ->
          Alcotest.(check string) "fired at the row probe" "deveval.row_build"
            point);
  (* the interrupted build installed nothing: the same context must
     still price exactly after disarm *)
  let game = Game.make Cost.Sum b in
  List.iter
    (fun targets ->
      check_int "context exact after the fault"
        (Game.deviation_cost game p ~player:0 ~targets)
        (Deviation_eval.cost c targets))
    [ [| 1; 3 |]; [| 2; 3 |]; [| 1; 2 |] ]

let suite =
  [
    case "parse specs" test_parse_specs;
    case "hit counting" test_hit_counting;
    case "delay is transparent" test_delay_is_transparent;
    case "mid-write fault preserves previous artifact"
      test_mid_write_fault_preserves_previous_artifact;
    case "open fault never touches target" test_open_fault_never_touches_target;
    slow_case "faulted stream leaves replayable partial"
      test_faulted_stream_leaves_replayable_partial;
    case "fault matrix over probe points" test_fault_matrix_over_probe_points;
    case "row build fault leaves no torn row" test_row_build_fault_leaves_no_torn_row;
    case "init from env" test_env_init;
  ]
