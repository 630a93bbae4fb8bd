(* Cross-cutting edge cases that do not fit a single module suite. *)

open Helpers
open Bbng_core
module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected

(* --- dynamics plumbing --- *)

let test_trace_social_cost_consistent () =
  let b = Budget.unit_budgets 6 in
  let game = Game.make Cost.Sum b in
  let start = Strategy.random (rng 8) b in
  let entries = ref [] in
  let outcome =
    Bbng_dynamics.Dynamics.run game ~schedule:Bbng_dynamics.Schedule.Round_robin
      ~rule:Bbng_dynamics.Dynamics.Exact_best
      ~on_step:(fun e -> entries := e :: !entries)
      start
  in
  (* the last trace entry's social cost equals the final profile's *)
  match !entries with
  | [] -> check_int "stable start" 0 (Bbng_dynamics.Dynamics.steps outcome)
  | last :: _ ->
      check_int "final social cost matches trace"
        (Game.social_cost game (Bbng_dynamics.Dynamics.final_profile outcome))
        last.Bbng_dynamics.Dynamics.social_cost

let test_random_order_deterministic () =
  let run seed =
    let b = Budget.unit_budgets 7 in
    let game = Game.make Cost.Sum b in
    let start = Strategy.random (rng 3) b in
    let o =
      Bbng_dynamics.Dynamics.run game
        ~schedule:(Bbng_dynamics.Schedule.Random_order seed)
        ~rule:Bbng_dynamics.Dynamics.Exact_best start
    in
    Strategy.to_string (Bbng_dynamics.Dynamics.final_profile o)
  in
  check_true "same seed, same trajectory" (run 42 = run 42)

(* --- flow reuse semantics --- *)

let test_flow_repeated_calls () =
  let net = Bbng_graph.Flow.create 3 in
  Bbng_graph.Flow.add_edge net ~src:0 ~dst:1 ~capacity:2;
  Bbng_graph.Flow.add_edge net ~src:1 ~dst:2 ~capacity:2;
  check_int "first" 2 (Bbng_graph.Flow.max_flow net ~source:0 ~sink:2);
  (* capacities are consumed: a second call pushes nothing more *)
  check_int "saturated" 0 (Bbng_graph.Flow.max_flow net ~source:0 ~sink:2)

let test_flow_zero_capacity () =
  let net = Bbng_graph.Flow.create 2 in
  Bbng_graph.Flow.add_edge net ~src:0 ~dst:1 ~capacity:0;
  check_int "zero capacity" 0 (Bbng_graph.Flow.max_flow net ~source:0 ~sink:1)

(* --- weighted Cinf --- *)

let test_weighted_cost_unreachable () =
  (* two components: the far vertex costs n^2 per unit weight *)
  let d = Digraph.of_arcs ~n:3 [ (0, 1) ] in
  let w = Weighted.of_digraph d in
  check_int "cinf charged" (1 + 9) (Weighted.weighted_cost w 0)

(* --- poa details --- *)

let test_pp_ratio_integer () =
  check_true "den 1 prints bare"
    (Format.asprintf "%a" Poa.pp_ratio { Poa.num = 3; den = 1 } = "3")

let test_canonical_n1 () =
  let p = Poa.canonical_low_diameter_realization (Budget.of_list [ 0 ]) in
  check_int "n" 1 (Strategy.n p)

(* n = 1: the lone profile has diameter 0 and welfare 0, so the
   diameter prices read 1/1 and the welfare prices are undefined *)
let test_exact_prices_n1 () =
  let game = Game.make Cost.Sum (Budget.of_list [ 0 ]) in
  let one = { Poa.num = 1; den = 1 } in
  check_true "OPT 0" (Poa.opt_diameter_exact (Budget.of_list [ 0 ]) = Some 0);
  check_true "prices 1/1"
    (Poa.exact_prices game = Some { Poa.anarchy = one; stability = one });
  check_true "welfare prices undefined" (Poa.exact_welfare_prices game = None)

(* --- growth: remaining models --- *)

let test_fit_exp_sqrt_log () =
  let f n =
    int_of_float (Float.round (2.0 ** sqrt (log (float_of_int n) /. log 2.0)))
  in
  let pts = List.map (fun n -> (n, f n)) [ 16; 64; 256; 1024; 4096; 65536; 1048576 ] in
  let fit = Bbng_analysis.Growth.best_fit pts in
  check_true "exp-sqrt-log recovered"
    (fit.Bbng_analysis.Growth.model = Bbng_analysis.Growth.Exp_sqrt_log)

let test_fit_sqrt () =
  let f n = int_of_float (Float.round (3.0 *. sqrt (float_of_int n))) in
  let pts = List.map (fun n -> (n, f n)) [ 4; 16; 64; 256; 1024; 4096 ] in
  let fit = Bbng_analysis.Growth.best_fit pts in
  check_true "sqrt recovered"
    (fit.Bbng_analysis.Growth.model = Bbng_analysis.Growth.Sqrt)

(* --- figure 3 with reversed ownership --- *)

let test_figure3_reversed_tree () =
  (* reverse all arcs of the binary tree: leaves own arcs toward the
     root; the decomposition must re-orient the path by arc majority and
     still partition the tree *)
  let d = Digraph.reverse (Bbng_graph.Generators.perfect_binary_tree 3) in
  let p = Strategy.of_digraph d in
  let r = Bbng_analysis.Bounds.figure3_decomposition p in
  check_int "partition" 15 (Array.fold_left ( + ) 0 r.Bbng_analysis.Bounds.attachment);
  check_int "diameter" 6 r.Bbng_analysis.Bounds.diameter

(* --- existence guards --- *)

let test_case_accessor_guards () =
  let open Bbng_constructions in
  Alcotest.check_raises "case2_t on case 1"
    (Invalid_argument "Existence.case2_t: not Case 2") (fun () ->
      ignore (Existence.case2_t (Budget.of_list [ 1; 1; 1 ])));
  Alcotest.check_raises "case3_m on case 1"
    (Invalid_argument "Existence.case3_m: not Case 3") (fun () ->
      ignore (Existence.case3_m (Budget.of_list [ 1; 1; 1 ])))

let test_figure1_class () =
  (* zeros present with sigma > n-1: the General row of Table 1 *)
  check_true "general class"
    (Budget.classify Bbng_constructions.Existence.figure1_budgets = Budget.General)

(* --- moore guard --- *)

let test_moore_guard () =
  Alcotest.check_raises "delta 0 with n > 1"
    (Invalid_argument "Moore.min_diameter: delta <= 0 with n > 1") (fun () ->
      ignore (Bbng_graph.Moore.min_diameter ~n:5 ~delta:0))

(* --- serialize undirected empty --- *)

let test_serialize_empty_graph () =
  let g = Undirected.of_edges ~n:3 [] in
  let g' =
    Bbng_graph.Serialize.Undirected_io.of_text
      (Bbng_graph.Serialize.Undirected_io.to_text g)
  in
  check_true "isolated vertices survive" (Undirected.equal g g')

(* --- census pretty-print of PoA --- *)

let test_census_poa_subcritical () =
  (* subcritical: OPT = n^2, every NE diameter = n^2: PoA = 1 *)
  let game = Game.make Cost.Sum (Budget.of_list [ 0; 0; 1; 0 ]) in
  let c =
    match Bbng_analysis.Census.run game with
    | Bbng_analysis.Census.Complete c -> c
    | Bbng_analysis.Census.Partial _ -> Alcotest.fail "unexpected partial census"
  in
  match Bbng_analysis.Census.price_of_anarchy c with
  | Some r -> check_true "PoA 1" (Poa.ratio_to_float r = 1.0)
  | None -> Alcotest.fail "expected a PoA"

(* --- deviation eval under braces --- *)

let test_deviation_eval_brace () =
  (* brace in the static part: multiplicity must not corrupt distances *)
  let b = Budget.of_list [ 1; 1; 1 ] in
  let p = Strategy.make b [| [| 1 |]; [| 0 |]; [| 0 |] |] in
  let game = Game.make Cost.Sum b in
  let ctx = Deviation_eval.make Cost.Sum p ~player:2 in
  check_int "matches generic" (Game.deviation_cost game p ~player:2 ~targets:[| 1 |])
    (Deviation_eval.cost ctx [| 1 |])

let suite =
  [
    case "trace social cost consistent" test_trace_social_cost_consistent;
    case "random-order schedule deterministic" test_random_order_deterministic;
    case "flow residual reuse" test_flow_repeated_calls;
    case "flow zero capacity" test_flow_zero_capacity;
    case "weighted Cinf" test_weighted_cost_unreachable;
    case "pp_ratio integer" test_pp_ratio_integer;
    case "canonical realization n=1" test_canonical_n1;
    case "fit 2^sqrt(log n)" test_fit_exp_sqrt_log;
    case "fit sqrt(n)" test_fit_sqrt;
    case "figure 3 on reversed ownership" test_figure3_reversed_tree;
    case "existence accessor guards" test_case_accessor_guards;
    case "figure 1 budget class" test_figure1_class;
    case "moore guard" test_moore_guard;
    case "serialize empty graph" test_serialize_empty_graph;
    case "census PoA on subcritical" test_census_poa_subcritical;
    case "deviation eval with braces" test_deviation_eval_brace;
    case "exact prices n=1" test_exact_prices_n1;
  ]
