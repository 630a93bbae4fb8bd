(* Audit-trail artifacts: the golden set.

   Emits a small, deterministic collection of equilibrium certificates
   and dynamics flight recordings into artifacts/, then re-checks every
   one in-process exactly the way `bbng_cli verify` / `bbng_cli replay`
   would.  Each recording is then compared, event by event, with its
   committed copy in test/golden/ (when run from the repository root),
   and `make artifacts` lists the certificates that differ from theirs
   byte for byte; bin/check.sh gates the committed copies on every run
   — so a change that silently breaks certificate serialization, replay
   semantics, or the recorded event schema fails the gate instead of a
   future audit.  Promoting a file is a manual copy. *)

open Bbng_core
open Exp_common
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule

let cert_path name = artifact_path (Printf.sprintf "CERT_%s.json" name)

let emit_cert name cert =
  let path = cert_path name in
  Equilibrium.write_certificate path cert;
  (match Equilibrium.read_certificate path with
  | Error msg -> failwith (Printf.sprintf "%s does not read back: %s" path msg)
  | Ok cert' -> (
      match Equilibrium.verify_certificate cert' with
      | Ok () ->
          note "%s: %s — independent re-check OK" path
            (Format.asprintf "%a" Equilibrium.pp_verdict
               (Equilibrium.certificate_verdict cert'))
      | Error msg ->
          failwith (Printf.sprintf "%s fails verification: %s" path msg)))

let certificates () =
  subsection "golden certificates";
  let open Bbng_constructions in
  let sun = Unit_budget.concentrated_sun ~n:8 in
  let sun_game = Game.make Cost.Max (Strategy.budgets sun) in
  emit_cert "sun8_max" (Equilibrium.certify_cert sun_game sun);
  emit_cert "sun8_swap" (Equilibrium.certify_swap_cert sun_game sun);
  let tripod = Tripod.profile ~k:2 in
  emit_cert "tripod2_max"
    (Equilibrium.certify_cert
       (Game.make Cost.Max (Strategy.budgets tripod))
       tripod);
  (* a refuted certificate belongs in the golden set too: verification
     checks the evidence, not the verdict's polarity *)
  let path3 = Strategy.of_string "1,2;0;0" in
  emit_cert "refuted_path3_max"
    (Equilibrium.certify_cert (Game.make Cost.Max (Strategy.budgets path3)) path3)

let replay_file path =
  let ic = open_in path in
  let events, _skipped =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Bbng_obs.Trace_export.read_events ic)
  in
  match Bbng_obs.Replay.runs_of_events events with
  | [] -> failwith (Printf.sprintf "%s: no recorded runs" path)
  | runs ->
      List.iter
        (fun r ->
          match Bbng_dynamics.Replay.check_run r with
          | Ok summary -> note "%s: %s" path summary
          | Error d ->
              failwith
                (Printf.sprintf "%s diverges at step %d: %s" path
                   d.Bbng_dynamics.Replay.at_step d.Bbng_dynamics.Replay.reason))
        runs

(* A recording's events without what differs from run to run: every
   [ts_us] stamp and [argv], and the [progress.heartbeat] events, whose
   rates, GC words and process-wide counters are telemetry of the run
   that wrote them.  The second component counts unreadable lines. *)
let recording_events path =
  let module Json = Bbng_obs.Json in
  let events, unreadable =
    In_channel.with_open_text path (fun ic ->
        Json.read_lines ic (function
          | Json.Obj fields as e ->
              let stable (k, _) = k <> "ts_us" && k <> "argv" in
              Some
                (if Json.event_name e = "progress.heartbeat" then None
                 else Some (Json.Obj (List.filter stable fields)))
          | _ -> None))
  in
  (List.filter_map Fun.id events, unreadable)

(* [None] when the recording [fresh] has the events of [golden], the
   run-specific fields aside, else where the two first part. *)
let recording_diff ~golden ~fresh =
  let name = Bbng_obs.Json.event_name in
  match (recording_events golden, recording_events fresh) with
  | (_, g), (_, f) when g + f > 0 -> Some "an unreadable line"
  | (g, _), (f, _) ->
      let rec first i = function
        | [], [] -> None
        | a :: g, b :: f when a = b -> first (i + 1) (g, f)
        | a :: _, b :: _ when name a = name b ->
            Some (Printf.sprintf "event %d (%s) differs" i (name a))
        | a :: _, b :: _ ->
            Some (Printf.sprintf "event %d is %s, was %s" i (name b) (name a))
        | [], b :: _ -> Some (Printf.sprintf "event %d (%s) is new" i (name b))
        | a :: _, [] -> Some (Printf.sprintf "event %d (%s) is missing" i (name a))
      in
      first 1 (g, f)

let compare_recording name =
  let file = Printf.sprintf "DYN_%s.jsonl" name in
  let golden = Filename.concat (Filename.concat "test" "golden") file in
  if Sys.file_exists golden then
    match recording_diff ~golden ~fresh:(artifact_path file) with
    | None -> note "%s: reproduces test/golden/ (ts_us, argv, heartbeats aside)" file
    | Some where -> note "%s: differs from test/golden/: %s" file where

let recordings () =
  subsection "golden flight recordings";
  let record name version budgets rule seed =
    let game = Game.make version budgets in
    (* bbng_cli's seeding convention, so a recording here is
       reproducible as `bbng_cli dynamics --seed N` *)
    let start = Strategy.random (Random.State.make [| seed |]) budgets in
    let outcome =
      record_dynamics ~name (fun () ->
          Dynamics.run ~max_steps:2_000
            ~meta:[ ("seed", Bbng_obs.Json.Int seed) ]
            game ~schedule:Schedule.Round_robin ~rule start)
    in
    note "%s: %s after %d steps" name
      (Dynamics.outcome_name outcome)
      (Dynamics.steps outcome);
    replay_file (artifact_path (Printf.sprintf "DYN_%s.jsonl" name));
    compare_recording name
  in
  record "rr_best_unit8_max" Cost.Max (Budget.unit_budgets 8) Dynamics.Exact_best
    1;
  record "rr_first_swap_n12_sum" Cost.Sum
    (Budget.uniform ~n:12 ~budget:2)
    Dynamics.First_swap 11

let run () =
  section "AUDIT ARTIFACTS — certificates and flight recordings (golden set)";
  certificates ();
  recordings ();
  note "compare with `make artifacts`; bin/check.sh verifies test/golden/"
