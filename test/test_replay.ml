(* The flight recorder round trip: a recorded dynamics run replays to
   the identical outcome, and any mutation of the recording is caught
   as a divergence at the right step. *)

open Bbng_core
open Helpers
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule
module Replay = Bbng_dynamics.Replay
module Json = Bbng_obs.Json

(* Record a run through the JSONL sink into a temp file, then parse the
   events back — the same pipeline as `--report` + `bbng_cli replay`. *)
let record ?meta ?(max_steps = 2_000) game ~schedule ~rule start =
  let path = Filename.temp_file "bbng_replay" ".jsonl" in
  let oc = open_out path in
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Bbng_obs.Sink.scoped (Bbng_obs.Sink.Jsonl oc) (fun () ->
            Dynamics.run ?meta ~max_steps game ~schedule ~rule start))
  in
  let ic = open_in path in
  let events, _skipped =
    Fun.protect
      ~finally:(fun () ->
        close_in_noerr ic;
        Sys.remove path)
      (fun () -> Bbng_obs.Trace_export.read_events ic)
  in
  (outcome, events)

let one_run events =
  match Bbng_obs.Replay.runs_of_events events with
  | [ r ] -> r
  | runs -> Alcotest.failf "expected 1 recorded run, got %d" (List.length runs)

let expect_ok run =
  match Replay.check_run run with
  | Ok summary -> summary
  | Error d -> Alcotest.failf "diverged at step %d: %s" d.Replay.at_step d.Replay.reason

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_converged_round_trip () =
  let b = Budget.unit_budgets 8 in
  let g = game Cost.Max b in
  let start = Strategy.random (rng 1) b in
  let outcome, events = record g ~schedule:Schedule.Round_robin ~rule:Dynamics.Exact_best start in
  check_true "run converged"
    (match outcome with Dynamics.Converged _ -> true | _ -> false);
  let run = one_run events in
  check_int "all steps recorded" (Dynamics.steps outcome) (List.length run.Bbng_obs.Replay.steps);
  let summary = expect_ok run in
  check_true "summary names the outcome" (contains ~needle:"converged" summary);
  (* the recorded final profile IS the live one (check_run verifies the
     replayed profile against this recorded string) *)
  match run.Bbng_obs.Replay.run_outcome with
  | Some o ->
      Alcotest.(check (option string))
        "final profile recorded"
        (Some (Strategy.to_string (Dynamics.final_profile outcome)))
        o.Bbng_obs.Replay.final_profile
  | None -> Alcotest.fail "outcome not recorded"

let test_meta_and_header_survive () =
  let b = Budget.uniform ~n:6 ~budget:2 in
  let g = game Cost.Sum b in
  let start = Strategy.random (rng 3) b in
  let _, events =
    record
      ~meta:[ ("seed", Json.Int 42) ]
      g ~schedule:Schedule.Round_robin ~rule:Dynamics.First_swap start
  in
  let run = one_run events in
  Alcotest.(check (option string)) "version" (Some "SUM") run.Bbng_obs.Replay.version;
  Alcotest.(check (option string))
    "rule" (Some "first-swap") run.Bbng_obs.Replay.rule;
  Alcotest.(check (option string))
    "schedule" (Some "round-robin") run.Bbng_obs.Replay.schedule;
  check_true "budgets recorded"
    (run.Bbng_obs.Replay.budgets = Some (Budget.to_array b));
  check_true "meta carries the seed"
    (List.assoc_opt "seed" run.Bbng_obs.Replay.meta = Some (Json.Int 42))

let mutate_step i f (run : Bbng_obs.Replay.run) =
  {
    run with
    Bbng_obs.Replay.steps =
      List.map
        (fun (s : Bbng_obs.Replay.step) ->
          if s.Bbng_obs.Replay.index = i then f s else s)
        run.Bbng_obs.Replay.steps;
  }

let a_recorded_run () =
  let b = Budget.uniform ~n:6 ~budget:2 in
  let g = game Cost.Sum b in
  let start = Strategy.random (rng 5) b in
  let outcome, events =
    record g ~schedule:Schedule.Round_robin ~rule:Dynamics.First_swap start
  in
  check_true "run took steps" (Dynamics.steps outcome > 0);
  one_run events

(* Cycle verification.  No genuine best-response cycle is producible at
   test scale: for every instance small enough to enumerate, the full
   improvement graph (a superset of every rule's moves) is acyclic —
   see Improvement_graph / the fip experiment; the paper leaves
   convergence open and our probes match "it converges".  The
   replayer's cycle branch is therefore pinned down through its
   rejection paths: a recording that CLAIMS a cycle must be refuted by
   the independently rebuilt occurrence history. *)

let falsify_outcome f (run : Bbng_obs.Replay.run) =
  {
    run with
    Bbng_obs.Replay.run_outcome = Option.map f run.Bbng_obs.Replay.run_outcome;
  }

let test_false_cycle_claim_rejected () =
  (* a converged run re-labelled as a cycle: the final profile never
     recurred, so the claim cannot survive replay *)
  let run = a_recorded_run () in
  let bad =
    falsify_outcome
      (fun o ->
        { o with Bbng_obs.Replay.outcome = "cycle"; Bbng_obs.Replay.period = Some 2 })
      run
  in
  match Replay.check_run bad with
  | Error d ->
      check_true "reason names the missing recurrence"
        (contains ~needle:"never occurred" d.Replay.reason)
  | Ok s -> Alcotest.failf "false cycle claim accepted: %s" s

let test_cycle_without_period_rejected () =
  let run = a_recorded_run () in
  let bad =
    falsify_outcome
      (fun o ->
        { o with Bbng_obs.Replay.outcome = "cycle"; Bbng_obs.Replay.period = None })
      run
  in
  match Replay.check_run bad with
  | Error d -> check_true "period demanded" (contains ~needle:"period" d.Replay.reason)
  | Ok s -> Alcotest.failf "cycle without period accepted: %s" s

let test_unknown_outcome_rejected () =
  let run = a_recorded_run () in
  let bad =
    falsify_outcome
      (fun o -> { o with Bbng_obs.Replay.outcome = "quantum-flux" })
      run
  in
  match Replay.check_run bad with
  | Error d -> check_true "names the outcome" (contains ~needle:"quantum-flux" d.Replay.reason)
  | Ok s -> Alcotest.failf "unknown outcome accepted: %s" s

let test_false_convergence_rejected () =
  (* chop the tail off a converged recording and keep the (now
     premature) converged outcome at the truncated step count: the
     stability re-check must notice a player still has a move *)
  let run = a_recorded_run () in
  let total = List.length run.Bbng_obs.Replay.steps in
  check_true "need at least two steps" (total >= 2);
  let keep = total - 1 in
  let bad =
    {
      run with
      Bbng_obs.Replay.steps =
        List.filter
          (fun (s : Bbng_obs.Replay.step) -> s.Bbng_obs.Replay.index <= keep)
          run.Bbng_obs.Replay.steps;
      Bbng_obs.Replay.run_outcome =
        Option.map
          (fun o ->
            {
              o with
              Bbng_obs.Replay.total_steps = keep;
              Bbng_obs.Replay.final_profile = None;
              Bbng_obs.Replay.final_social_cost = None;
            })
          run.Bbng_obs.Replay.run_outcome;
    }
  in
  match Replay.check_run bad with
  | Error d ->
      check_true "stability re-check fires"
        (contains ~needle:"improving move" d.Replay.reason)
  | Ok s -> Alcotest.failf "premature convergence accepted: %s" s

let test_mutated_cost_diverges () =
  let run = a_recorded_run () in
  let target = 1 + (List.length run.Bbng_obs.Replay.steps / 2) in
  let bad =
    mutate_step target
      (fun s -> { s with Bbng_obs.Replay.new_cost = s.Bbng_obs.Replay.new_cost - 1 })
      run
  in
  match Replay.check_run bad with
  | Error d -> check_int "divergence at the mutated step" target d.Replay.at_step
  | Ok s -> Alcotest.failf "mutated new_cost accepted: %s" s

let test_mutated_targets_diverge () =
  let run = a_recorded_run () in
  let bad =
    mutate_step 1
      (fun s -> { s with Bbng_obs.Replay.old_targets = Some [||] })
      run
  in
  match Replay.check_run bad with
  | Error d -> check_int "caught at step 1" 1 d.Replay.at_step
  | Ok s -> Alcotest.failf "mutated old_targets accepted: %s" s

let test_interrupted_prefix_replays () =
  let b = Budget.uniform ~n:6 ~budget:2 in
  let g = game Cost.Sum b in
  let start = Strategy.random (rng 7) b in
  let _, events =
    record g ~schedule:Schedule.Round_robin ~rule:Dynamics.First_swap start
  in
  (* simulate a killed process: the outcome event never made it *)
  let truncated =
    List.filter
      (fun e ->
        match Json.member "event" e with
        | Some (Json.Str "dynamics.outcome") -> false
        | _ -> true)
      events
  in
  let run = one_run truncated in
  check_true "no outcome" (run.Bbng_obs.Replay.run_outcome = None);
  let summary = expect_ok run in
  check_true "summary flags the truncation" (contains ~needle:"interrupted" summary)

let test_headerless_recording_fails_cleanly () =
  let b = Budget.uniform ~n:6 ~budget:2 in
  let g = game Cost.Sum b in
  let start = Strategy.random (rng 9) b in
  let _, events =
    record g ~schedule:Schedule.Round_robin ~rule:Dynamics.First_swap start
  in
  let no_header =
    List.filter
      (fun e ->
        match Json.member "event" e with
        | Some (Json.Str "dynamics.start") -> false
        | _ -> true)
      events
  in
  match Bbng_obs.Replay.runs_of_events no_header with
  | [ run ] -> (
      match Replay.check_run run with
      | Error d -> check_int "header-level failure" 0 d.Replay.at_step
      | Ok s -> Alcotest.failf "headerless recording replayed: %s" s)
  | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs)

let prop_random_runs_replay =
  qcheck ~count:25 "random recorded runs replay clean"
    (random_budget_gen ~n_min:2 ~n_max:5) (fun input ->
      let p = random_profile_of input in
      let g = game Cost.Sum (Strategy.budgets p) in
      let outcome, events =
        record ~max_steps:500 g ~schedule:Schedule.Round_robin
          ~rule:Dynamics.Exact_best p
      in
      ignore outcome;
      match Bbng_obs.Replay.runs_of_events events with
      | [ run ] -> (
          match Replay.check_run run with
          | Ok _ -> true
          | Error d ->
              QCheck.Test.fail_reportf "diverged at %d: %s" d.Replay.at_step
                d.Replay.reason)
      | runs ->
          QCheck.Test.fail_reportf "expected 1 run, got %d" (List.length runs))

(* --- golden recordings reproduce move for move --- *)

(* Replay only checks that each recorded step improves, so a changed
   tie-break in a search would still replay cleanly.  Re-running each
   golden recording's header through [Dynamics.run] must instead
   reproduce every step — player, arcs, costs, diameter — and the
   outcome exactly. *)
let test_golden_runs_reproduce () =
  let files =
    Sys.readdir "golden" |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"DYN_" f
           && Filename.check_suffix f ".jsonl")
    |> List.sort compare
  in
  check_true "golden recordings found" (files <> []);
  List.iter
    (fun file ->
      let events, _skipped =
        In_channel.with_open_text (Filename.concat "golden" file)
          Bbng_obs.Trace_export.read_events
      in
      let run =
        match Bbng_obs.Replay.runs_of_events events with
        | [ run ] -> run
        | runs -> Alcotest.failf "%s: %d runs recorded" file (List.length runs)
      in
      let get what = function
        | Some x -> x
        | None -> Alcotest.failf "%s: header has no %s" file what
      in
      let version =
        match get "version" run.Bbng_obs.Replay.version with
        | "MAX" -> Cost.Max
        | "SUM" -> Cost.Sum
        | v -> Alcotest.failf "%s: unknown version %s" file v
      in
      let rule =
        get "rule" (Option.bind run.Bbng_obs.Replay.rule Dynamics.rule_of_name)
      in
      if run.Bbng_obs.Replay.schedule <> Some "round-robin" then
        Alcotest.failf "%s: only round-robin recordings are re-run" file;
      let start = Strategy.of_string (get "profile" run.Bbng_obs.Replay.start_profile) in
      let game =
        Game.make version
          (Budget.of_array (get "budgets" run.Bbng_obs.Replay.budgets))
      in
      let steps = ref [] in
      let outcome =
        Dynamics.run
          ~max_steps:(get "max_steps" run.Bbng_obs.Replay.max_steps)
          ~on_step:(fun e -> steps := e :: !steps)
          game ~schedule:Schedule.Round_robin ~rule start
      in
      let steps = List.rev !steps in
      let recorded = run.Bbng_obs.Replay.steps in
      check_int (file ^ ": step count") (List.length recorded) (List.length steps);
      List.iter2
        (fun (r : Bbng_obs.Replay.step) (e : Dynamics.trace_entry) ->
          let at what = Printf.sprintf "%s step %d: %s" file r.index what in
          check_int (at "player") r.player e.player;
          check_int (at "old cost") r.old_cost e.old_cost;
          check_int (at "new cost") r.new_cost e.new_cost;
          check_int (at "social cost") r.social_cost e.social_cost;
          check_int_array (at "old targets") (get "old_targets" r.old_targets)
            e.old_targets;
          check_int_array (at "new targets") (get "new_targets" r.new_targets)
            e.new_targets)
        recorded steps;
      let o = get "outcome" run.Bbng_obs.Replay.run_outcome in
      let final = Dynamics.final_profile outcome in
      check_true (file ^ ": outcome")
        (o.Bbng_obs.Replay.outcome = Dynamics.outcome_name outcome);
      check_int (file ^ ": total steps") o.Bbng_obs.Replay.total_steps
        (Dynamics.steps outcome);
      check_true (file ^ ": final profile")
        (o.Bbng_obs.Replay.final_profile = Some (Strategy.to_string final));
      check_true (file ^ ": final social cost")
        (o.Bbng_obs.Replay.final_social_cost = Some (Game.social_cost game final)))
    files

let suite =
  [
    case "converged run round-trips" test_converged_round_trip;
    case "header and meta survive" test_meta_and_header_survive;
    case "false cycle claim rejected" test_false_cycle_claim_rejected;
    case "cycle without period rejected" test_cycle_without_period_rejected;
    case "unknown outcome rejected" test_unknown_outcome_rejected;
    case "premature convergence rejected" test_false_convergence_rejected;
    case "mutated cost diverges" test_mutated_cost_diverges;
    case "mutated targets diverge" test_mutated_targets_diverge;
    case "interrupted prefix replays" test_interrupted_prefix_replays;
    case "headerless recording fails cleanly" test_headerless_recording_fails_cleanly;
    prop_random_runs_replay;
    case "golden recordings reproduce" test_golden_runs_reproduce;
  ]
