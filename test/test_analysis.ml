(* Structure validators, bounds, growth fitting, table rendering. *)

open Helpers
open Bbng_core
open Bbng_analysis

(* --- Structure (Theorems 4.1 / 4.2) --- *)

let test_anatomy_of_sun () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:8 in
  let a = Structure.analyze p in
  check_true "connected" a.Structure.connected;
  check_int "one cycle" 1 (List.length a.Structure.cycles);
  check_int "triangle" 3 a.Structure.cycle_len;
  check_false "no brace" a.Structure.has_brace;
  check_int "fringe depth" 1 a.Structure.max_dist_to_cycle;
  check_int "diameter" 2 a.Structure.diameter

let test_anatomy_rejects_non_unit () =
  Alcotest.check_raises "non-unit"
    (Invalid_argument "Structure.analyze: budgets are not all 1") (fun () ->
      ignore (Structure.analyze (Bbng_constructions.Tripod.profile ~k:2)))

let test_check_sum_structure () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:8 in
  check_true "sun passes" (Structure.check_sum_structure p = None);
  (* a long directed cycle violates the <= 5 clause *)
  let ring = Strategy.of_digraph (Bbng_graph.Generators.directed_cycle 9) in
  (match Structure.check_sum_structure ring with
  | Some v -> check_true "cycle clause" (v.Structure.clause = "cycle length <= 5")
  | None -> Alcotest.fail "expected violation");
  (* brace on n=2 is fine *)
  check_true "n=2 brace ok"
    (Structure.check_sum_structure (Bbng_constructions.Unit_budget.brace_pair ()) = None)

let test_check_max_structure () =
  let ring7 = Strategy.of_digraph (Bbng_graph.Generators.directed_cycle 7) in
  check_true "7-cycle ok in MAX" (Structure.check_max_structure ring7 = None);
  let ring9 = Strategy.of_digraph (Bbng_graph.Generators.directed_cycle 9) in
  (match Structure.check_max_structure ring9 with
  | Some v -> check_true "cycle clause" (v.Structure.clause = "cycle length <= 7")
  | None -> Alcotest.fail "expected violation")

let test_disconnected_unit_profile () =
  (* two braces: disconnected *)
  let d = Bbng_graph.Digraph.of_arcs ~n:4 [ (0, 1); (1, 0); (2, 3); (3, 2) ] in
  let p = Strategy.of_digraph d in
  match Structure.check_max_structure p with
  | Some v -> check_true "connected clause" (v.Structure.clause = "connected")
  | None -> Alcotest.fail "expected violation"

(* --- Bounds --- *)

let test_tree_sum_bound_values () =
  (* 2 * (log2(n+1) + 1) *)
  check_int "n=7" 8 (Bounds.tree_sum_diameter_bound ~n:7);
  check_int "n=1" 4 (Bounds.tree_sum_diameter_bound ~n:1);
  check_true "monotone"
    (Bounds.tree_sum_diameter_bound ~n:100 <= Bounds.tree_sum_diameter_bound ~n:1000)

let test_sum_diameter_bound () =
  check_true "grows slowly"
    (Bounds.sum_diameter_bound 1024 < Bounds.sum_diameter_bound (1024 * 1024));
  check_int "n=1" 1 (Bounds.sum_diameter_bound 1)

let test_sqrt_log_lower_bound () =
  check_int "n=16" 2 (Bounds.sqrt_log_lower_bound ~n:16);
  check_int "n=512" 3 (Bounds.sqrt_log_lower_bound ~n:512);
  check_int "n=1" 0 (Bounds.sqrt_log_lower_bound ~n:1)

let test_figure3_on_binary_tree () =
  let p = Bbng_constructions.Binary_tree.profile ~depth:3 in
  let r = Bounds.figure3_decomposition p in
  check_int "diameter" 6 r.Bounds.diameter;
  check_int "attachment partitions n" 15
    (Array.fold_left ( + ) 0 r.Bounds.attachment);
  (* the tree is a SUM equilibrium, so inequality (1) must hold *)
  check_true "doubling inequality" r.Bounds.inequality_holds;
  check_true "some forward arcs" (r.Bounds.forward_arcs <> [])

let test_figure3_on_tripod () =
  (* the tripod is only a MAX equilibrium; the SUM doubling inequality
     fails on its long path, which is exactly why SUM trees are short *)
  let p = Bbng_constructions.Tripod.profile ~k:4 in
  let r = Bounds.figure3_decomposition p in
  check_int "diameter" 8 r.Bounds.diameter;
  check_false "inequality fails for tripod" r.Bounds.inequality_holds

let test_figure3_rejects_non_tree () =
  Alcotest.check_raises "not a tree"
    (Invalid_argument "Bounds.figure3_decomposition: realization is not a tree")
    (fun () ->
      ignore
        (Bounds.figure3_decomposition
           (Bbng_constructions.Unit_budget.concentrated_sun ~n:5)))

let test_tree_ball_radius () =
  (* whole graph a tree: radius = eccentricity *)
  check_int "path end" 4 (Bounds.tree_ball_radius path5 0);
  check_int "path middle" 2 (Bounds.tree_ball_radius path5 2);
  (* cycle of 6: from any vertex, radius-2 ball has 5 vertices 4 edges
     (tree); radius 3 closes the cycle *)
  check_int "cycle6" 2 (Bounds.tree_ball_radius cycle6 0);
  (* complete graph: radius-1 ball is everything and full of cycles *)
  check_int "K5" 0 (Bounds.tree_ball_radius k5 0);
  check_int "max over vertices" 4 (Bounds.max_tree_ball_radius path5)

let test_tree_ball_on_equilibria () =
  (* Theorem 6.1: SUM equilibria have O(log n) tree-ball radii.  The
     binary tree IS a tree, so its radius equals the eccentricity —
     which Thm 3.3 already forces to be O(log n).  The sun (unicyclic)
     has tiny radius. *)
  let sun = Bbng_core.Strategy.underlying (Bbng_constructions.Unit_budget.concentrated_sun ~n:30) in
  check_true "sun radius tiny" (Bounds.max_tree_ball_radius sun <= 2);
  let fig1 = Bbng_core.Strategy.underlying (Bbng_constructions.Existence.figure1_profile ()) in
  check_true "figure-1 radius small"
    (Bounds.max_tree_ball_radius fig1 <= Bounds.tree_sum_diameter_bound ~n:22)

let test_theorem_7_2_report () =
  (* complete digraph: min budget 0 but fully connected *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.complete_digraph 5) in
  let r = Bounds.check_theorem_7_2 p in
  check_int "diameter" 1 r.Bounds.diameter_;
  check_true "holds" r.Bounds.theorem_7_2_ok;
  (* an Existence equilibrium with min budget 2: either small diameter or 2-connected *)
  let b = Budget.uniform ~n:6 ~budget:2 in
  let p = Bbng_constructions.Existence.construct b in
  check_true "Thm 7.2 on constructed equilibrium"
    (Bounds.check_theorem_7_2 p).Bounds.theorem_7_2_ok

let test_lemma_7_1 () =
  (* uniform budget-2 equilibrium: cut size 2, eligible vertices have
     budget 2 = |cut|, so the hypothesis filters them out (vacuous) or
     they satisfy local diameter <= 2; either way the check passes *)
  let p = Bbng_constructions.Existence.construct (Budget.uniform ~n:8 ~budget:2) in
  (match Bounds.check_lemma_7_1 p with
  | Some r -> check_true "holds on equilibrium" r.Bounds.all_local_diameter_le_2
  | None -> () (* complete realization: no cut to examine *));
  (* budget-3 equilibrium with a size-<3 cut would make vertices
     eligible; on the constructed diameter-2 profile the conclusion
     holds trivially *)
  let p3 = Bbng_constructions.Existence.construct (Budget.uniform ~n:9 ~budget:3) in
  (match Bounds.check_lemma_7_1 p3 with
  | Some r -> check_true "holds with budget 3" r.Bounds.all_local_diameter_le_2
  | None -> ());
  (* complete digraph: no vertex cut at all *)
  let k = Bbng_core.Strategy.of_digraph (Bbng_graph.Generators.complete_digraph 5) in
  check_true "complete has no cut" (Bounds.check_lemma_7_1 k = None);
  (* engineered biting case: cut {0}; component {1,2} all adjacent to 0
     with budgets 2 > 1; component {3} has budget 1 and is filtered *)
  let biting =
    Bbng_core.Strategy.of_digraph
      (Bbng_graph.Digraph.of_arcs ~n:4 [ (1, 0); (1, 2); (2, 0); (2, 1); (3, 0) ])
  in
  match Bounds.check_lemma_7_1 biting with
  | Some r ->
      check_int_list "cut is the hub" [ 0 ] r.Bounds.cut;
      check_int_list "eligible component" [ 1; 2 ] r.Bounds.eligible;
      check_true "conclusion holds" r.Bounds.all_local_diameter_le_2
  | None -> Alcotest.fail "expected a cut"

(* --- Growth fitting --- *)

let series f = List.map (fun n -> (n, f n)) [ 16; 32; 64; 128; 256; 512; 1024; 4096; 16384 ]

let test_fit_constant () =
  let fit = Growth.best_fit (series (fun _ -> 7)) in
  check_true "constant" (fit.Growth.model = Growth.Constant)

let test_fit_linear () =
  let fit = Growth.best_fit (series (fun n -> (2 * n / 3) + 5)) in
  check_true "linear" (fit.Growth.model = Growth.Linear)

let test_fit_log () =
  let log2i n = int_of_float (log (float_of_int n) /. log 2.0) in
  let fit = Growth.best_fit (series (fun n -> 2 * log2i n)) in
  check_true "log" (fit.Growth.model = Growth.Logarithmic)

let test_fit_sqrt_log () =
  (* rounding (not truncating) and a wide n-range keep the sqrt-log
     signal distinguishable from a plain logarithm *)
  let f n = int_of_float (Float.round (3.0 *. sqrt (log (float_of_int n) /. log 2.0))) in
  let pts =
    List.map (fun n -> (n, f n))
      [ 16; 32; 64; 128; 256; 512; 1024; 4096; 16384; 65536; 1048576 ]
  in
  let fit = Growth.best_fit pts in
  check_true "sqrt log" (fit.Growth.model = Growth.Sqrt_log)

let test_fit_requires_points () =
  Alcotest.check_raises "too few"
    (Invalid_argument "Growth.fit_model: need at least 2 points") (fun () ->
      ignore (Growth.fit_model Growth.Linear [ (1, 1) ]))

let test_fit_r2_perfect () =
  let fit = Growth.fit_model Growth.Linear [ (1, 2); (2, 4); (3, 6) ] in
  check_true "r2 = 1" (fit.Growth.r2 > 0.999);
  check_true "slope 2" (abs_float (fit.Growth.slope -. 2.0) < 1e-9)

let test_model_names () =
  check_int "six models" 6 (List.length Growth.all_models);
  check_int "distinct names" 6
    (List.length (List.sort_uniq compare (List.map Growth.model_name Growth.all_models)))

(* --- Table --- *)

let test_table_render () =
  let t = Table.make ~headers:[ "name"; "n"; "d" ] in
  Table.add_row t [ "tripod"; "10"; "6" ];
  Table.add_int_row t "binary" [ 15; 6 ];
  let s = Table.to_string t in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "header present" (contains s "name");
  check_true "contains first row" (contains s "tripod");
  check_true "contains int row" (contains s "binary")

let test_table_width_mismatch () =
  let t = Table.make ~headers:[ "a"; "b" ] in
  Alcotest.check_raises "row width"
    (Invalid_argument "Table.add_row: 3 cells, expected 2") (fun () ->
      Table.add_row t [ "1"; "2"; "3" ])

let test_table_cells () =
  check_true "int" (Table.cell_int 42 = "42");
  check_true "float" (Table.cell_float ~decimals:1 3.14 = "3.1");
  check_true "bool" (Table.cell_bool true = "yes" && Table.cell_bool false = "no")

let test_table_alignment () =
  let t = Table.make ~headers:[ "x" ] in
  Table.add_row t [ "longer-cell" ];
  let lines = String.split_on_char '\n' (Table.to_string t) in
  match lines with
  | header :: rule :: _ ->
      check_int "rule width matches" (String.length header) (String.length rule)
  | _ -> Alcotest.fail "expected header and rule"

(* --- Iso_acc: mergeable isomorphism-class accumulator --- *)

let unit4_equilibria version =
  let b = Budget.unit_budgets 4 in
  let game = Game.make version b in
  let acc = ref [] in
  Equilibrium.iter_profiles b (fun p ->
      if Equilibrium.is_nash game p then acc := p :: !acc);
  List.rev !acc

let class_strings acc =
  List.map
    (fun (rep, count) -> (Strategy.to_string rep, count))
    (Structure.Iso_acc.classes acc)

let test_iso_acc_counts () =
  let eqs = unit4_equilibria Cost.Sum in
  let acc =
    List.fold_left Structure.Iso_acc.add Structure.Iso_acc.empty eqs
  in
  check_int "total" (List.length eqs) (Structure.Iso_acc.total acc);
  check_int "classes consistent"
    (Structure.Iso_acc.class_count acc)
    (List.length (Structure.Iso_acc.classes acc));
  check_int "counts add up" (List.length eqs)
    (List.fold_left (fun a (_, c) -> a + c) 0 (Structure.Iso_acc.classes acc))

let test_iso_acc_merge_order_independent () =
  let eqs = unit4_equilibria Cost.Sum in
  let add_all l =
    List.fold_left Structure.Iso_acc.add Structure.Iso_acc.empty l
  in
  let whole = class_strings (add_all eqs) in
  let rec split = function
    | [] -> ([], [])
    | [ x ] -> ([ x ], [])
    | x :: y :: rest ->
        let a, b = split rest in
        (x :: a, y :: b)
  in
  let a, b = split eqs in
  check_true "a+b = whole"
    (class_strings (Structure.Iso_acc.merge (add_all a) (add_all b)) = whole);
  check_true "b+a = whole"
    (class_strings (Structure.Iso_acc.merge (add_all b) (add_all a)) = whole);
  (* re-injecting serialized classes (the checkpoint path) agrees too *)
  let iso_tests () = Bbng_obs.Counter.find "census.iso_tests" in
  let before = iso_tests () in
  let reinjected =
    Structure.Iso_acc.add_classes Structure.Iso_acc.empty
      (List.map (fun (rep, count) -> (Strategy.of_string rep, count)) whole)
  in
  check_true "add_classes round-trip" (class_strings reinjected = whole);
  (* one list's classes are distinct: none is tested against another *)
  check_int "no iso test within one list" before (iso_tests ());
  (* a merge tests b's classes against a's only *)
  let acc_a = add_all a and acc_b = add_all b in
  let before = iso_tests () in
  ignore (Structure.Iso_acc.merge acc_a acc_b);
  check_true "merge tests across sides only"
    (iso_tests () - before
    <= Structure.Iso_acc.class_count acc_a * Structure.Iso_acc.class_count acc_b)

let test_iso_acc_groups_relabellings () =
  (* the directed triangle under two labelings: one class, count 2 *)
  let b = Budget.unit_budgets 3 in
  let p1 = Strategy.make b [| [| 1 |]; [| 2 |]; [| 0 |] |] in
  let p2 = Strategy.make b [| [| 2 |]; [| 0 |]; [| 1 |] |] in
  check_true "fingerprints agree"
    (Structure.Iso_acc.fingerprint p1 = Structure.Iso_acc.fingerprint p2);
  let acc =
    Structure.Iso_acc.add (Structure.Iso_acc.add Structure.Iso_acc.empty p1) p2
  in
  match Structure.Iso_acc.classes acc with
  | [ (rep, 2) ] ->
      (* canonical representative: the lexicographically least serialization *)
      check_true "minimal rep"
        (Strategy.to_string rep
        = min (Strategy.to_string p1) (Strategy.to_string p2))
  | l -> Alcotest.failf "expected one class of 2, got %d" (List.length l)

let suite =
  [
    case "anatomy of sun" test_anatomy_of_sun;
    case "anatomy rejects non-unit" test_anatomy_rejects_non_unit;
    case "check SUM structure" test_check_sum_structure;
    case "check MAX structure" test_check_max_structure;
    case "disconnected profile violates" test_disconnected_unit_profile;
    case "tree SUM bound values" test_tree_sum_bound_values;
    case "SUM diameter bound" test_sum_diameter_bound;
    case "sqrt-log lower bound" test_sqrt_log_lower_bound;
    case "figure 3 on the binary tree" test_figure3_on_binary_tree;
    case "figure 3 on the tripod" test_figure3_on_tripod;
    case "figure 3 rejects non-trees" test_figure3_rejects_non_tree;
    case "tree-ball radius (Thm 6.1)" test_tree_ball_radius;
    case "tree-ball radius on equilibria" test_tree_ball_on_equilibria;
    case "theorem 7.2 report" test_theorem_7_2_report;
    case "lemma 7.1 checker" test_lemma_7_1;
    case "fit constant" test_fit_constant;
    case "fit linear" test_fit_linear;
    case "fit log" test_fit_log;
    case "fit sqrt-log" test_fit_sqrt_log;
    case "fit input validation" test_fit_requires_points;
    case "fit r2" test_fit_r2_perfect;
    case "model names" test_model_names;
    case "table render" test_table_render;
    case "table width mismatch" test_table_width_mismatch;
    case "table cells" test_table_cells;
    case "table alignment" test_table_alignment;
    slow_case "iso accumulator counts" test_iso_acc_counts;
    slow_case "iso accumulator merge order" test_iso_acc_merge_order_independent;
    case "iso accumulator groups relabellings" test_iso_acc_groups_relabellings;
  ]
