(* Audit-trail artifacts: the golden set.

   Emits a small, deterministic collection of equilibrium certificates
   and dynamics flight recordings into artifacts/, then re-checks every
   one in-process exactly the way `bbng_cli verify` / `bbng_cli replay`
   would.  `make artifacts` lists the files that differ from their
   committed copies in test/golden/, where bin/check.sh gates them on
   every run — so a change that silently breaks certificate
   serialization, replay semantics, or the recorded event schema fails
   the gate instead of a future audit.  Promoting a file is a manual
   copy. *)

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
    replay_file (artifact_path (Printf.sprintf "DYN_%s.jsonl" name))
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
