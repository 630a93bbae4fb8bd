open Helpers
open Bbng_core
module Ig = Bbng_dynamics.Improvement_graph

let unit_game n version = Game.make version (Budget.unit_budgets n)

(* every sink certifies as a Nash equilibrium and vice versa *)
let sinks_are_nash game (t : Ig.t) =
  Array.for_all Fun.id
    (Array.mapi
       (fun i p -> List.mem i t.sinks = Equilibrium.is_nash game p)
       t.profiles)

(* the finite improvement property: no improving cycle anywhere *)
let fip_holds game = not (Ig.build game).has_cycle

let test_node_count () =
  let g = unit_game 3 Cost.Sum in
  let t = Ig.build g in
  check_int "profiles" 8 (Array.length t.Ig.profiles)

let test_sinks_are_nash () =
  List.iter
    (fun version ->
      let g = unit_game 3 version in
      let t = Ig.build g in
      check_true "sinks <-> Nash" (sinks_are_nash g t);
      check_int "two equilibria" 2 (List.length t.Ig.sinks))
    Cost.all_versions

let test_fip_small_unit () =
  (* no better-response cycle on tiny unit instances, in either version *)
  List.iter
    (fun version ->
      check_true
        (Printf.sprintf "FIP unit n=3 %s" (Cost.version_name version))
        (fip_holds (unit_game 3 version));
      check_true
        (Printf.sprintf "FIP unit n=4 %s" (Cost.version_name version))
        (fip_holds (unit_game 4 version)))
    Cost.all_versions

let test_best_only_subset () =
  let g = unit_game 4 Cost.Sum in
  let all = Ig.build ~kind:Ig.Any_improvement g in
  let best = Ig.build ~kind:Ig.Best_only g in
  check_true "best-only arcs are a subset"
    (List.length best.Ig.arcs <= List.length all.Ig.arcs);
  check_int "same sinks" (List.length all.Ig.sinks) (List.length best.Ig.sinks)

let test_longest_path_bounds_convergence () =
  let g = unit_game 4 Cost.Sum in
  let t = Ig.build g in
  check_false "acyclic" t.Ig.has_cycle;
  check_true "positive worst case" (t.Ig.longest_path_lower_bound >= 1);
  (* dynamics from any start can never exceed the longest improving path *)
  let st = rng 3 in
  for _ = 1 to 10 do
    let start = Strategy.random st (Game.budgets g) in
    match
      Bbng_dynamics.Dynamics.run g ~schedule:Bbng_dynamics.Schedule.Round_robin
        ~rule:Bbng_dynamics.Dynamics.First_improving start
    with
    | Bbng_dynamics.Dynamics.Converged { steps; _ } ->
        check_true "steps within longest path"
          (steps <= t.Ig.longest_path_lower_bound)
    | _ -> Alcotest.fail "tiny instance must converge (graph is acyclic)"
  done

let test_cycle_witness_replays () =
  (* we do not know a cyclic instance of this game; verify the witness
     machinery on a case WITH a cycle by checking the field contract on
     acyclic graphs instead, and exercising witness replay if one ever
     appears. *)
  let g = Game.make Cost.Sum (Budget.of_list [ 1; 1; 0; 1 ]) in
  let t = Ig.build g in
  match t.Ig.cycle_witness with
  | None -> check_false "consistent flags" t.Ig.has_cycle
  | Some cycle ->
      check_true "flagged" t.Ig.has_cycle;
      check_true "witness length >= 2" (List.length cycle >= 2)

let test_tree_instance_graph () =
  let g = Game.make Cost.Sum (Budget.of_list [ 0; 1; 1; 1 ]) in
  let t = Ig.build g in
  check_int "profiles" 27 (Array.length t.Ig.profiles);
  check_true "sinks are the 4 equilibria" (List.length t.Ig.sinks = 4);
  check_true "sinks certified" (sinks_are_nash g t)

let test_potential_is_ordinal () =
  (* every improving arc strictly decreases the extracted potential *)
  let g = unit_game 4 Cost.Sum in
  let t = Ig.build g in
  match Ig.potential t with
  | None -> Alcotest.fail "acyclic graph must have a potential"
  | Some phi ->
      List.iter
        (fun (a, b) ->
          check_true "arc decreases potential" (phi.(a) > phi.(b)))
        t.Ig.arcs;
      (* sinks sit at potential 0 *)
      List.iter (fun i -> check_int "sink potential" 0 phi.(i)) t.Ig.sinks

let test_potential_none_when_cyclic () =
  (* fabricate a cyclic improvement graph record to check the contract *)
  let g = unit_game 3 Cost.Sum in
  let t = Ig.build g in
  let fake = { t with Ig.has_cycle = true } in
  check_true "no potential on cyclic" (Ig.potential fake = None)

let test_to_dot () =
  let g = unit_game 3 Cost.Sum in
  let t = Ig.build g in
  let dot = Ig.to_dot t in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "digraph header" (contains dot "digraph improvement");
  check_true "sink shape" (contains dot "doublecircle");
  check_true "an arc" (contains dot "->")

let suite =
  [
    case "node count" test_node_count;
    case "sinks are exactly the Nash equilibria" test_sinks_are_nash;
    slow_case "FIP on small unit instances" test_fip_small_unit;
    slow_case "best-only is a subgraph" test_best_only_subset;
    slow_case "longest path bounds convergence" test_longest_path_bounds_convergence;
    case "cycle witness contract" test_cycle_witness_replays;
    case "tree instance graph" test_tree_instance_graph;
    slow_case "extracted potential is ordinal" test_potential_is_ordinal;
    case "potential absent when cyclic" test_potential_none_when_cyclic;
    case "dot export" test_to_dot;
  ]
