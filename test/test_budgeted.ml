(* Cooperative cancellation: token semantics, degraded certification,
   interrupted dynamics (with resume), and budgeted solvers. *)

open Bbng_core
open Helpers
module Budgeted = Bbng_obs.Budgeted
module Dynamics = Bbng_dynamics.Dynamics
module Schedule = Bbng_dynamics.Schedule
module Replay = Bbng_dynamics.Replay
module K_center = Bbng_solvers.K_center
module K_median = Bbng_solvers.K_median

(* --- token unit semantics --- *)

let test_unlimited_never_expires () =
  let t = Budgeted.unlimited in
  check_true "is_unlimited" (Budgeted.is_unlimited t);
  check_false "not expired" (Budgeted.expired t);
  Budgeted.checkpoint t;
  Budgeted.spend t 1_000_000;
  Budgeted.cancel t;
  check_false "immune to cancel and spend" (Budgeted.expired t)

let test_work_limit_trips () =
  let t = Budgeted.create ~work_limit:10 () in
  check_false "fresh token alive" (Budgeted.expired t);
  Budgeted.spend t 5;
  Budgeted.checkpoint t;
  (match Budgeted.checkpoint ~cost:20 t with
  | () -> Alcotest.fail "checkpoint over the limit must raise"
  | exception Budgeted.Expired -> ());
  check_true "latched" (Budgeted.expired t);
  check_true "cause recorded"
    (Budgeted.why t = Some Budgeted.Work_limit);
  check_int "work accounted" 25 (Budgeted.work_done t)

let test_deadline_trips () =
  let t = Budgeted.create ~deadline_ms:0.5 () in
  Unix.sleepf 0.01;
  check_true "past deadline" (Budgeted.expired t);
  check_true "cause recorded" (Budgeted.why t = Some Budgeted.Deadline)

let test_cancel_trips () =
  let t = Budgeted.create () in
  check_false "no limits, alive" (Budgeted.expired t);
  Budgeted.cancel t;
  Budgeted.cancel t;
  check_true "cancelled" (Budgeted.expired t);
  check_true "cause recorded" (Budgeted.why t = Some Budgeted.Cancelled);
  match Budgeted.checkpoint t with
  | () -> Alcotest.fail "checkpoint on a cancelled token must raise"
  | exception Budgeted.Expired -> ()

let test_guard () =
  check_int_option "guard passes" (Some 42)
    (Budgeted.guard Budgeted.unlimited (fun () -> 42));
  let dead = Budgeted.create ~work_limit:0 () in
  Budgeted.spend dead 1;
  check_int_option "guard on expired" None (Budgeted.guard dead (fun () -> 1));
  let t = Budgeted.create () in
  check_int_option "guard swallows Expired" None
    (Budgeted.guard t (fun () -> raise Budgeted.Expired))

let test_outcome_helpers () =
  Alcotest.(check string) "complete" "complete"
    (Budgeted.outcome_name (Budgeted.Complete 1));
  Alcotest.(check string) "degraded" "degraded"
    (Budgeted.outcome_name (Budgeted.Degraded 1));
  Alcotest.(check string) "exhausted" "exhausted"
    (Budgeted.outcome_name (Budgeted.Exhausted : int Budgeted.outcome));
  check_int_option "value of degraded" (Some 7)
    (Budgeted.outcome_value (Budgeted.Degraded 7));
  check_int_option "value of exhausted" None
    (Budgeted.outcome_value (Budgeted.Exhausted : int Budgeted.outcome))

(* --- degraded certification --- *)

let sun8 = Bbng_constructions.Unit_budget.concentrated_sun ~n:8
let tripod2 = Bbng_constructions.Tripod.profile ~k:2

let cert_of version p =
  Equilibrium.certify_cert (game version (Strategy.budgets p)) p

(* a fixture where certification genuinely needs the exponential scan
   (cheap tiers must not classify every player, or a budget would have
   nothing to interrupt) *)
let scan_heavy_fixture () =
  let needs_scan (version, p) =
    let cert = cert_of version p in
    List.exists
      (fun (_, a) -> a.Best_response.tier = Best_response.Exhaustive)
      cert.Equilibrium.cert_evidence
  in
  match
    List.find_opt needs_scan
      [ (Cost.Max, tripod2); (Cost.Max, sun8); (Cost.Sum, sun8) ]
  with
  | Some fx -> fx
  | None -> Alcotest.fail "no fixture exercises the exhaustive tier"

let test_tight_budget_degrades_and_verifies () =
  let version, p = scan_heavy_fixture () in
  let g = game version (Strategy.budgets p) in
  let budget = Budgeted.create ~work_limit:0 () in
  let cert = Equilibrium.certify_cert ~budget g p in
  (match Equilibrium.certificate_verdict cert with
  | Equilibrium.Degraded unresolved ->
      check_true "some player unresolved" (unresolved <> [])
  | v ->
      Alcotest.failf "expected a degraded verdict, got %a"
        Equilibrium.pp_verdict v);
  check_true "token tripped" (Budgeted.expired budget);
  (* evidence still covers every player: the cheap tiers always run *)
  check_int "evidence per player" (Strategy.n p)
    (List.length cert.Equilibrium.cert_evidence);
  (* the weaker claim must pass the independent verifier *)
  (match Equilibrium.verify_certificate cert with
  | Ok () -> ()
  | Error e -> Alcotest.failf "degraded certificate rejected: %s" e);
  (* and survive the artifact round trip with its provenance intact *)
  match
    Equilibrium.certificate_of_artifact
      (Equilibrium.certificate_to_artifact cert)
  with
  | Error e -> Alcotest.failf "artifact round trip failed: %s" e
  | Ok cert' -> (
      match Equilibrium.certificate_verdict cert' with
      | Equilibrium.Degraded _ -> ()
      | v ->
          Alcotest.failf "round trip lost the degraded verdict: %a"
            Equilibrium.pp_verdict v)

let prop_budgeted_certificates_always_verify =
  qcheck ~count:40 "budgeted certificates always verify"
    (random_budget_gen ~n_min:3 ~n_max:6)
    (fun ((_, _, seed) as input) ->
      let p = random_profile_of input in
      let g = game Cost.Sum (Strategy.budgets p) in
      let budget = Budgeted.create ~work_limit:(seed mod 300) () in
      let cert = Equilibrium.certify_cert ~budget g p in
      (match Equilibrium.certificate_verdict cert with
      | Equilibrium.Degraded _ ->
          if not (Budgeted.expired budget) then
            QCheck.Test.fail_report "degraded verdict without expiry"
      | _ -> ());
      match Equilibrium.verify_certificate cert with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let prop_budgeted_bounded_certificates_verify =
  (* profiles with b >= 2 players, certified under small work limits in
     both versions: the certificate verifies, and no audit records as
     its [best] a candidate the bound decides — priced at the audit's
     current cost on a fresh context, every recorded [best] comes back
     at its recorded cost, never as [max_int] *)
  qcheck ~count:60 "budgeted b>=2 certificates verify, best never bound-decided"
    (random_budget_gen ~n_min:4 ~n_max:8)
    (fun ((_, _, seed) as input) ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let g = game version (Strategy.budgets p) in
          let budget = Budgeted.create ~work_limit:(seed mod 400) () in
          let cert = Equilibrium.certify_cert ~budget g p in
          (match Equilibrium.verify_certificate cert with
          | Ok () -> true
          | Error e -> QCheck.Test.fail_report e)
          && List.for_all
               (fun (player, (a : Best_response.audit)) ->
                 match a.best with
                 | Some m when a.engine = Deviation_eval.Rows ->
                     let ctx = Deviation_eval.make version p ~player in
                     Deviation_eval.cost_within ctx m.targets ~limit:a.current
                     = m.cost
                     || QCheck.Test.fail_reportf
                          "%s player %d (%s): best was bound-decided"
                          (Cost.version_name version) player
                          (Best_response.tier_name a.tier)
                 | _ -> true)
               cert.Equilibrium.cert_evidence)
        Cost.all_versions)

(* --- interrupted dynamics and resume --- *)

(* record a run through the JSONL sink, as --report does *)
let record ?budget game ~schedule ~rule start =
  let path = Filename.temp_file "bbng_budgeted" ".jsonl" in
  let oc = open_out path in
  let outcome =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Bbng_obs.Sink.scoped (Bbng_obs.Sink.Jsonl oc) (fun () ->
            Dynamics.run ?budget game ~schedule ~rule start))
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

let test_interrupted_run_replays_and_resumes () =
  let b = Budget.unit_budgets 8 in
  let g = game Cost.Sum b in
  let start = Strategy.random (rng 4) b in
  (* measure the run's total work, then grant half of it *)
  let meter = Budgeted.create ~work_limit:max_int () in
  (match
     Dynamics.run ~budget:meter g ~schedule:Schedule.Round_robin
       ~rule:Dynamics.Exact_best start
   with
  | Dynamics.Converged _ -> ()
  | o -> Alcotest.failf "fixture should converge, got %s" (Dynamics.outcome_name o));
  let total_work = Budgeted.work_done meter in
  check_true "fixture does real work" (total_work > 0);
  let budget = Budgeted.create ~work_limit:(total_work / 2) () in
  let outcome, events =
    record ~budget g ~schedule:Schedule.Round_robin ~rule:Dynamics.Exact_best
      start
  in
  (match outcome with
  | Dynamics.Interrupted _ -> ()
  | o ->
      Alcotest.failf "half the work must interrupt, got %s"
        (Dynamics.outcome_name o));
  let run = one_run events in
  (* the recording is a valid prefix: it replays... *)
  (match Replay.check_run run with
  | Ok _ -> ()
  | Error d ->
      Alcotest.failf "interrupted recording diverged at %d: %s" d.Replay.at_step
        d.Replay.reason);
  (* ...and resumes from exactly the last consistent state *)
  match Replay.resume_state run with
  | Error d -> Alcotest.failf "resume refused: %s" d.Replay.reason
  | Ok (g', profile, steps) ->
      check_int "resume step counter" (Dynamics.steps outcome) steps;
      check_true "resume profile is the last consistent one"
        (Strategy.equal (Dynamics.final_profile outcome) profile);
      (* finishing the resumed run reaches a Nash equilibrium *)
      (match
         Dynamics.run g' ~schedule:Schedule.Round_robin
           ~rule:Dynamics.Exact_best profile
       with
      | Dynamics.Converged { profile = final; _ } ->
          check_true "resumed run reaches Nash" (Equilibrium.is_nash g' final)
      | o -> Alcotest.failf "resumed run: %s" (Dynamics.outcome_name o))

(* --- budgeted solvers --- *)

let test_k_center_budgeted () =
  let g = cycle6 in
  let exact = K_center.exact g ~k:2 in
  (match K_center.exact_within g ~k:2 with
  | Budgeted.Complete s -> check_int "unlimited = exact" exact.K_center.radius s.K_center.radius
  | o -> Alcotest.failf "unlimited must complete, got %s" (Budgeted.outcome_name o));
  let budget = Budgeted.create ~work_limit:0 () in
  match K_center.exact_within ~budget g ~k:2 with
  | Budgeted.Degraded s ->
      check_true "degraded radius is an upper bound"
        (s.K_center.radius >= exact.K_center.radius)
  | o ->
      Alcotest.failf "zero work must degrade after one candidate, got %s"
        (Budgeted.outcome_name o)

let test_k_median_budgeted () =
  let g = two_triangles in
  let exact = K_median.exact g ~k:2 in
  (match K_median.exact_within g ~k:2 with
  | Budgeted.Complete s -> check_int "unlimited = exact" exact.K_median.cost s.K_median.cost
  | o -> Alcotest.failf "unlimited must complete, got %s" (Budgeted.outcome_name o));
  let budget = Budgeted.create ~work_limit:0 () in
  match K_median.exact_within ~budget g ~k:2 with
  | Budgeted.Degraded s ->
      check_true "degraded cost is an upper bound"
        (s.K_median.cost >= exact.K_median.cost)
  | o ->
      Alcotest.failf "zero work must degrade after one candidate, got %s"
        (Budgeted.outcome_name o)

let suite =
  [
    case "unlimited never expires" test_unlimited_never_expires;
    case "work limit trips" test_work_limit_trips;
    case "deadline trips" test_deadline_trips;
    case "cancel trips" test_cancel_trips;
    case "guard" test_guard;
    case "outcome helpers" test_outcome_helpers;
    case "tight budget degrades and verifies" test_tight_budget_degrades_and_verifies;
    prop_budgeted_certificates_always_verify;
    prop_budgeted_bounded_certificates_verify;
    slow_case "interrupted run replays and resumes" test_interrupted_run_replays_and_resumes;
    case "k-center budgeted" test_k_center_budgeted;
    case "k-median budgeted" test_k_median_budgeted;
  ]
