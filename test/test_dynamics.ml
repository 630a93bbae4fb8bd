open Helpers
open Bbng_core
open Bbng_dynamics

let run ?(max_steps = 5_000) game schedule rule start =
  Dynamics.run ~max_steps game ~schedule ~rule start

let test_already_stable () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:6 in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  match run game Schedule.Round_robin Dynamics.Exact_best p with
  | Dynamics.Converged { steps; profile } ->
      check_int "zero steps" 0 steps;
      check_true "unchanged" (Strategy.equal p profile)
  | o -> Alcotest.failf "expected convergence, got %s" (Dynamics.outcome_name o)

let test_convergence_reaches_nash () =
  (* from random starts, Exact_best convergence implies Nash *)
  let st = rng 5 in
  List.iter
    (fun version ->
      for _ = 1 to 5 do
        let b = Budget.unit_budgets 6 in
        let start = Strategy.random st b in
        let game = Game.make version b in
        match run game Schedule.Round_robin Dynamics.Exact_best start with
        | Dynamics.Converged { profile; _ } ->
            check_true "converged to Nash" (Equilibrium.is_nash game profile)
        | Dynamics.Cycle _ -> () (* a genuine BR cycle is a valid outcome *)
        | Dynamics.Step_limit _ | Dynamics.Interrupted _ ->
            Alcotest.fail "step limit on a tiny game"
      done)
    Cost.all_versions

let test_swap_rule_reaches_swap_stability () =
  let st = rng 9 in
  let b = Budget.of_list [ 2; 1; 1; 1; 0 ] in
  let start = Strategy.random st b in
  let game = Game.make Cost.Sum b in
  match run game Schedule.Round_robin Dynamics.Best_swap start with
  | Dynamics.Converged { profile; _ } ->
      check_true "swap stable" (Equilibrium.is_swap_stable game profile);
      check_true "post-condition stable"
        (Dynamics.stable game Dynamics.Best_swap profile)
  | o -> Alcotest.failf "unexpected outcome %s" (Dynamics.outcome_name o)

let test_each_step_strictly_improves () =
  let st = rng 21 in
  let b = Budget.unit_budgets 7 in
  let start = Strategy.random st b in
  let game = Game.make Cost.Sum b in
  let ok = ref true in
  let on_step e =
    if e.Dynamics.new_cost >= e.Dynamics.old_cost then ok := false
  in
  ignore (Dynamics.run game ~schedule:Schedule.Round_robin ~rule:Dynamics.Exact_best ~on_step start);
  check_true "all steps strict improvements" !ok

let test_step_limit () =
  let st = rng 2 in
  let b = Budget.unit_budgets 8 in
  let start = Strategy.random st b in
  let game = Game.make Cost.Sum b in
  match Dynamics.run ~max_steps:0 game ~schedule:Schedule.Round_robin ~rule:Dynamics.Exact_best start with
  | Dynamics.Step_limit { steps; _ } -> check_int "no steps" 0 steps
  | Dynamics.Converged _ -> () (* start may happen to be stable *)
  | o -> Alcotest.failf "unexpected %s" (Dynamics.outcome_name o)

let test_schedules_agree_on_stability () =
  (* all schedules terminate on the same tiny game *)
  let st = rng 33 in
  let b = Budget.unit_budgets 5 in
  let start = Strategy.random st b in
  let game = Game.make Cost.Max b in
  List.iter
    (fun schedule ->
      match run game schedule Dynamics.Exact_best start with
      | Dynamics.Converged { profile; _ } ->
          check_true
            (Printf.sprintf "nash under %s" (Schedule.name schedule))
            (Equilibrium.is_nash game profile)
      | Dynamics.Cycle _ -> ()
      | Dynamics.Step_limit _ | Dynamics.Interrupted _ ->
          Alcotest.fail "step limit")
    [ Schedule.Round_robin; Schedule.Random_order 4; Schedule.Max_gain ]

let test_max_gain_picks_largest () =
  (* On the directed path 0->1->2->3 (budgets 1,1,1,0) only player 0 has
     an improving move (re-point to the middle, SUM gain 1); Max_gain
     must therefore activate player 0 first. *)
  let start = Strategy.of_digraph (Bbng_graph.Generators.directed_path 4) in
  let game = Game.make Cost.Sum (Strategy.budgets start) in
  let gain p =
    match Best_response.best_improvement game start p with
    | None -> 0
    | Some m -> Game.player_cost game start p - m.Best_response.cost
  in
  let best_gain = List.fold_left (fun acc p -> max acc (gain p)) 0 [ 0; 1; 2; 3 ] in
  check_true "fixture has an improving move" (best_gain > 0);
  let first_mover = ref (-1) in
  let on_step e = if !first_mover = -1 then first_mover := e.Dynamics.player in
  ignore
    (Dynamics.run ~max_steps:1 game ~schedule:Schedule.Max_gain
       ~rule:Dynamics.Exact_best ~on_step start);
  check_true "a step was taken" (!first_mover >= 0);
  check_int "first mover has max gain" best_gain (gain !first_mover)

let test_cycle_detection_no_false_positives () =
  (* strict-improvement single-mover dynamics cannot revisit a profile
     with the same ... actually they can in principle; here we just check
     reported cycles replay honestly on a batch of runs *)
  let st = rng 50 in
  for _ = 1 to 10 do
    let b = Budget.unit_budgets 6 in
    let start = Strategy.random st b in
    let game = Game.make Cost.Max b in
    match run game Schedule.Round_robin Dynamics.First_swap start with
    | Dynamics.Cycle { period; _ } -> check_true "positive period" (period > 0)
    | Dynamics.Converged { profile; _ } ->
        check_true "swap stable" (Equilibrium.is_swap_stable game profile)
    | Dynamics.Step_limit _ | Dynamics.Interrupted _ ->
        Alcotest.fail "unexpected step limit"
  done

let test_outcome_accessors () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:5 in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  let o = run game Schedule.Round_robin Dynamics.Exact_best p in
  check_int "steps accessor" 0 (Dynamics.steps o);
  check_true "profile accessor" (Strategy.equal p (Dynamics.final_profile o))

let test_rule_names_distinct () =
  let names =
    List.map Dynamics.rule_name
      [ Dynamics.Exact_best; First_improving; Best_swap; First_swap ]
  in
  check_int "distinct" 4 (List.length (List.sort_uniq compare names))

let prop_convergence_on_small_tree_instances =
  qcheck ~count:20 "dynamics terminates on small instances"
    (random_budget_gen ~n_min:2 ~n_max:6) (fun ((n, total, seed) as input) ->
      ignore n;
      ignore total;
      ignore seed;
      let p = random_profile_of input in
      let game = Game.make Cost.Sum (Strategy.budgets p) in
      match run ~max_steps:2_000 game Schedule.Round_robin Dynamics.Exact_best p with
      | Dynamics.Converged { profile; _ } -> Equilibrium.is_nash game profile
      | Dynamics.Cycle _ -> true
      | Dynamics.Step_limit _ | Dynamics.Interrupted _ -> false)

(* The step's old_cost is the one the move search priced; re-pricing the
   pre-step profile through the generic path must agree, on connected and
   disconnected starts, under every rule, schedule and version. *)
let prop_old_cost_is_exact =
  qcheck ~count:40 "trace old_cost == Game.player_cost before the step"
    (sparse_or_dense_budget_gen ~n_min:2 ~n_max:6) (fun input ->
      let start = random_profile_of input in
      List.for_all
        (fun (version, rule, schedule) ->
          let game = Game.make version (Strategy.budgets start) in
          let current = ref start and ok = ref true in
          let on_step e =
            let player = e.Dynamics.player in
            if e.Dynamics.old_cost <> Game.player_cost game !current player then
              ok := false;
            current :=
              Strategy.with_strategy !current ~player
                ~targets:e.Dynamics.new_targets
          in
          ignore
            (Dynamics.run ~max_steps:200 game ~schedule ~rule ~on_step start);
          !ok)
        (List.concat_map
           (fun version ->
             List.concat_map
               (fun rule ->
                 List.map
                   (fun schedule -> (version, rule, schedule))
                   [ Schedule.Round_robin; Schedule.Max_gain ])
               [
                 Dynamics.Exact_best;
                 Dynamics.First_improving;
                 Dynamics.Best_swap;
                 Dynamics.First_swap;
               ])
           Cost.all_versions))

(* Convergence diagnostics: a recorded converging run must carry
   dynamics.diagnosis events whose final verdict aligns with the typed
   outcome, and the outcome event must expose max_regret = 0 (every
   player was probed and none improved — an exact 0, not a sample). *)
let test_diagnosis_events_recorded () =
  let module Json = Bbng_obs.Json in
  let file = Filename.temp_file "bbng_dyn_diag" ".jsonl" in
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove file)
    (fun () ->
      let st = rng 11 in
      let budgets = Budget.uniform ~n:8 ~budget:2 in
      let game = Game.make Cost.Sum budgets in
      let start = Strategy.random st budgets in
      (match
         Bbng_obs.Sink.scoped (Bbng_obs.Sink.Jsonl oc) (fun () ->
             run game Schedule.Round_robin Dynamics.Exact_best start)
       with
      | Dynamics.Converged _ -> ()
      | o -> Alcotest.failf "expected convergence, got %s" (Dynamics.outcome_name o));
      let ic = open_in file in
      let events = ref [] in
      (try
         while true do
           events := Json.of_string (input_line ic) :: !events
         done
       with End_of_file -> close_in ic);
      let events = List.rev !events in
      let named n =
        List.filter (fun j -> Json.member "event" j = Some (Json.Str n)) events
      in
      let diags = named "dynamics.diagnosis" in
      check_true "at least a final diagnosis" (List.length diags >= 1);
      let final = List.nth diags (List.length diags - 1) in
      check_true "final diagnosis marked final"
        (Json.member "final" final = Some (Json.Bool true));
      check_true "converged run diagnosed as converging"
        (Json.member "state" final = Some (Json.Str "converging"));
      match named "dynamics.outcome" with
      | [ outcome ] ->
          check_true "outcome carries diagnosis"
            (Json.member "diagnosis" outcome = Some (Json.Str "converging"));
          check_true "max regret is exactly 0 at convergence"
            (Json.member "max_regret" outcome = Some (Json.Int 0))
      | l -> Alcotest.failf "expected 1 outcome event, got %d" (List.length l))

(* --- search-outcome pin for the b = 1 batch --- *)

(* One Exact_best search re-run over a context forced onto the
   per-candidate overlay, with the same ladder as Best_response: cost
   floor, Lemma 2.2, then every candidate in vertex order, keeping the
   first strictly cheapest improvement and stopping at the floor.
   Returns the current cost, the improving move and the candidates
   priced. *)
let overlay_exact_best version profile player =
  let n = Strategy.n profile in
  let ctx =
    Deviation_eval.make ~engine:Deviation_eval.Bfs_overlay version profile
      ~player
  in
  let current = Deviation_eval.current_cost ctx in
  let in_degree =
    List.length
      (List.filter
         (fun i ->
           i <> player && Array.mem player (Strategy.strategy profile i))
         (List.init n Fun.id))
  in
  let budget = Array.length (Strategy.strategy profile player) in
  let floor = Cost.cost_floor version ~n ~budget ~in_degree in
  if current <= floor || Best_response.satisfies_lemma_2_2 profile player then
    (current, None, 0)
  else begin
    let best = ref None and scanned = ref 0 in
    (try
       for v = 0 to n - 1 do
         if v <> player then begin
           incr scanned;
           let cost = Deviation_eval.cost ctx [| v |] in
           let better =
             match !best with None -> cost < current | Some (_, c) -> cost < c
           in
           if better then begin
             best := Some (v, cost);
             if cost <= floor then raise Exit
           end
         end
       done
     with Exit -> ());
    (current, !best, !scanned)
  end

(* Round-robin dynamics driven by [overlay_exact_best]: the steps as
   (player, new target, old cost, new cost), plus the evaluations, the
   candidates and the blocks a batched run must have built — one per
   started word of each search's scanned prefix. *)
let overlay_round_robin version start =
  let n = Strategy.n start in
  let evals = ref 0 and candidates = ref 0 and blocks = ref 0 in
  let search profile p =
    let ((_, _, scanned) as r) = overlay_exact_best version profile p in
    evals := !evals + 1 + scanned;
    candidates := !candidates + scanned;
    let width = Bbng_graph.Bit_bfs.width in
    blocks := !blocks + ((scanned + width - 1) / width);
    r
  in
  let rec probe profile pos tried =
    if tried >= n then None
    else
      match search profile (pos mod n) with
      | current, Some (t, cost), _ -> Some (pos mod n, t, current, cost)
      | _, None, _ -> probe profile (pos + 1) (tried + 1)
  in
  let rec loop profile pos acc =
    match probe profile pos 0 with
    | None -> List.rev acc
    | Some (p, t, old_cost, new_cost) ->
        let profile = Strategy.with_strategy profile ~player:p ~targets:[| t |] in
        loop profile (p + 1) ((p, t, old_cost, new_cost) :: acc)
  in
  let steps = loop start 0 [] in
  (steps, !evals, !candidates, !blocks)

let test_batched_dynamics_match_overlay () =
  (* n = 100 puts every unit player's scan on the batch (two words of
     candidates); the trajectory, the evaluation and candidate counts
     must be exactly those of per-candidate overlay pricing *)
  let n = 100 in
  let b = Budget.unit_budgets n in
  List.iter
    (fun (version, seed) ->
      let label what =
        Printf.sprintf "%s seed %d: %s" (Cost.version_name version) seed what
      in
      let start = Strategy.random (rng seed) b in
      let game = Game.make version b in
      let expected, evals, candidates, blocks = overlay_round_robin version start in
      let find = Bbng_obs.Counter.find in
      let evals0 = find "deveval.incremental_evals"
      and candidates0 = find "br.candidates"
      and blocks0 = find "deveval.blocks_built" in
      let trace = ref [] in
      let on_step (e : Dynamics.trace_entry) =
        let t = match e.new_targets with [| t |] -> t | _ -> -1 in
        trace := (e.player, t, e.old_cost, e.new_cost) :: !trace
      in
      (match
         Dynamics.run ~on_step game ~schedule:Schedule.Round_robin
           ~rule:Dynamics.Exact_best start
       with
      | Dynamics.Converged _ -> ()
      | o -> Alcotest.failf "%s: got %s" (label "expected convergence") (Dynamics.outcome_name o));
      let got = List.rev !trace in
      check_true (label "the batch priced something") (blocks > 0 && got <> []);
      check_int (label "steps") (List.length expected) (List.length got);
      List.iteri
        (fun i ((p, t, o, c), (p', t', o', c')) ->
          let step what = label (Printf.sprintf "step %d %s" (i + 1) what) in
          check_int (step "player") p p';
          check_int (step "target") t t';
          check_int (step "old cost") o o';
          check_int (step "new cost") c c')
        (List.combine expected got);
      check_int (label "evaluations") evals (find "deveval.incremental_evals" - evals0);
      check_int (label "candidates") candidates (find "br.candidates" - candidates0);
      check_int (label "blocks built") blocks (find "deveval.blocks_built" - blocks0))
    [ (Cost.Sum, 1); (Cost.Max, 2) ]

let suite =
  [
    case "already stable" test_already_stable;
    case "convergence reaches Nash" test_convergence_reaches_nash;
    case "swap rule reaches swap stability" test_swap_rule_reaches_swap_stability;
    case "steps strictly improve" test_each_step_strictly_improves;
    prop_old_cost_is_exact;
    case "step limit" test_step_limit;
    case "all schedules work" test_schedules_agree_on_stability;
    case "max-gain picks the largest gain" test_max_gain_picks_largest;
    case "cycle reports are honest" test_cycle_detection_no_false_positives;
    case "outcome accessors" test_outcome_accessors;
    case "rule names" test_rule_names_distinct;
    case "diagnosis events recorded" test_diagnosis_events_recorded;
    prop_convergence_on_small_tree_instances;
    case "batched unit dynamics match overlay pricing"
      test_batched_dynamics_match_overlay;
  ]
