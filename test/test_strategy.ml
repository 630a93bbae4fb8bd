open Helpers
open Bbng_core
module Digraph = Bbng_graph.Digraph

let b3 = Budget.of_list [ 1; 1; 1 ]
let triangle () = Strategy.make b3 [| [| 1 |]; [| 2 |]; [| 0 |] |]

let test_make_and_access () =
  let p = triangle () in
  check_int "n" 3 (Strategy.n p);
  check_int_array "strategy" [| 2 |] (Strategy.strategy p 1)

let test_sorting () =
  let b = Budget.of_list [ 2; 0; 0 ] in
  let p = Strategy.make b [| [| 2; 1 |]; [||]; [||] |] in
  check_int_array "sorted targets" [| 1; 2 |] (Strategy.strategy p 0)

let test_validation () =
  Alcotest.check_raises "budget mismatch"
    (Invalid_argument "Strategy: player 0 plays 2 targets, budget is 1")
    (fun () -> ignore (Strategy.make b3 [| [| 1; 2 |]; [| 2 |]; [| 0 |] |]));
  Alcotest.check_raises "self target"
    (Invalid_argument "Strategy: player 1 targets itself") (fun () ->
      ignore (Strategy.make b3 [| [| 1 |]; [| 1 |]; [| 0 |] |]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Strategy: player 0 targets 2 twice") (fun () ->
      ignore
        (Strategy.make (Budget.of_list [ 2; 0; 0 ]) [| [| 2; 2 |]; [||]; [||] |]))

let test_of_sorted () =
  let s = [| [| 1; 2 |]; [| 0 |]; [||] |] in
  let b = Budget.of_list [ 2; 1; 0 ] in
  let p = Strategy.of_sorted b s in
  check_true "same profile as make" (Strategy.equal p (Strategy.make b s));
  check_true "keeps the array" (Strategy.strategy p 0 == s.(0));
  List.iter
    (fun (what, player, b, s) ->
      Alcotest.check_raises what
        (Invalid_argument
           (Printf.sprintf
              "Strategy.of_sorted: player %d does not play a sorted strategy"
              player))
        (fun () -> ignore (Strategy.of_sorted b s)))
    [
      ("budget mismatch", 0, b3, [| [| 1; 2 |]; [| 2 |]; [| 0 |] |]);
      ("self target", 1, b3, [| [| 1 |]; [| 1 |]; [| 0 |] |]);
      ("out of range", 2, b3, [| [| 1 |]; [| 2 |]; [| 3 |] |]);
      ("duplicate", 0, b, [| [| 1; 1 |]; [| 0 |]; [||] |]);
      ("unsorted", 0, b, [| [| 2; 1 |]; [| 0 |]; [||] |]);
    ]

let test_realize () =
  let g = Strategy.realize (triangle ()) in
  check_true "arc 0->1" (Digraph.mem_arc g 0 1);
  check_true "arc 2->0" (Digraph.mem_arc g 2 0);
  check_int "arcs" 3 (Digraph.arc_count g)

let test_underlying () =
  let u = Strategy.underlying (triangle ()) in
  check_int "edges" 3 (Bbng_graph.Undirected.edge_count u)

let test_underlying_memo () =
  (* one U(G) per profile value: a repeated call returns the very same
     graph, a deviation's new profile gets a fresh one built from its
     own strategies, and going back to the first profile rebuilds its
     graph rather than handing out the deviation's *)
  let module U = Bbng_graph.Undirected in
  let p = Bbng_constructions.Binary_tree.profile ~depth:2 in
  let u = Strategy.underlying p in
  check_true "same value, same graph" (Strategy.underlying p == u);
  check_true "the graph of the profile" (U.equal u (U.of_digraph (Strategy.realize p)));
  let p' = Strategy.with_strategy p ~player:0 ~targets:[| 3; 4 |] in
  let u' = Strategy.underlying p' in
  check_true "a deviation gets a fresh graph" (u' != u);
  check_true "the deviation's graph" (U.equal u' (U.of_digraph (Strategy.realize p')));
  check_false "which differs" (U.equal u' u);
  check_true "back on the first profile"
    (U.equal (Strategy.underlying p) (U.of_digraph (Strategy.realize p)));
  (* an equal but distinct value is a distinct key with an equal graph *)
  let q = Strategy.of_string (Strategy.to_string p) in
  check_true "equal value, equal graph" (U.equal (Strategy.underlying q) u)

let test_with_strategy () =
  let p = triangle () in
  let p' = Strategy.with_strategy p ~player:0 ~targets:[| 2 |] in
  check_int_array "changed" [| 2 |] (Strategy.strategy p' 0);
  check_int_array "original intact" [| 1 |] (Strategy.strategy p 0);
  check_int_array "others intact" [| 2 |] (Strategy.strategy p' 1)

let test_with_strategy_validates () =
  Alcotest.check_raises "budget enforced"
    (Invalid_argument "Strategy: player 0 plays 2 targets, budget is 1")
    (fun () ->
      ignore (Strategy.with_strategy (triangle ()) ~player:0 ~targets:[| 1; 2 |]))

let test_of_digraph_roundtrip () =
  let p = triangle () in
  let p' = Strategy.of_digraph (Strategy.realize p) in
  check_true "roundtrip" (Strategy.equal p p')

let test_string_roundtrip () =
  let p = triangle () in
  check_true "roundtrip" (Strategy.equal p (Strategy.of_string (Strategy.to_string p)));
  (* zero-budget players serialize as empty fields *)
  let b = Budget.of_list [ 0; 1 ] in
  let p = Strategy.make b [| [||]; [| 0 |] |] in
  check_true "empty strategies" (Strategy.equal p (Strategy.of_string (Strategy.to_string p)))

let test_of_string_rejects () =
  Alcotest.check_raises "garbage"
    (Invalid_argument "Strategy.of_string: bad token x") (fun () ->
      ignore (Strategy.of_string "x;0"))

let test_equal_hash () =
  let p1 = triangle () in
  let p2 = Strategy.make b3 [| [| 1 |]; [| 2 |]; [| 0 |] |] in
  check_true "equal" (Strategy.equal p1 p2);
  check_int "hash consistent" (Strategy.hash p1) (Strategy.hash p2);
  let p3 = Strategy.with_strategy p1 ~player:0 ~targets:[| 2 |] in
  check_false "different" (Strategy.equal p1 p3)

let test_relabel () =
  let p = triangle () in
  let q = Strategy.relabel p [| 1; 2; 0 |] in
  (* 0->1 becomes 1->2, etc. *)
  check_int_array "relabelled strategy of 1" [| 2 |] (Strategy.strategy q 1);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Strategy.relabel: not a permutation") (fun () ->
      ignore (Strategy.relabel p [| 0; 0; 1 |]));
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Strategy.relabel: wrong length") (fun () ->
      ignore (Strategy.relabel p [| 0; 1 |]))

let prop_relabel_preserves_equilibrium =
  qcheck ~count:50 "Nash property is relabelling-invariant"
    (random_budget_gen ~n_min:2 ~n_max:6) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 99) in
      let pi = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = pi.(i) in
        pi.(i) <- pi.(j);
        pi.(j) <- tmp
      done;
      let q = Strategy.relabel p pi in
      List.for_all
        (fun version ->
          let gp = Game.make version (Strategy.budgets p) in
          let gq = Game.make version (Strategy.budgets q) in
          Equilibrium.is_nash gp p = Equilibrium.is_nash gq q
          && Game.social_cost gp p = Game.social_cost gq q)
        Cost.all_versions)

let prop_relabel_realization_isomorphic =
  qcheck ~count:50 "relabelled realizations are digraph-isomorphic"
    (random_budget_gen ~n_min:2 ~n_max:8) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 5) in
      let pi = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let tmp = pi.(i) in
        pi.(i) <- pi.(j);
        pi.(j) <- tmp
      done;
      Bbng_graph.Isomorphism.digraph_isomorphic (Strategy.realize p)
        (Strategy.realize (Strategy.relabel p pi)))

let prop_random_valid =
  qcheck "random profiles respect budgets" (random_budget_gen ~n_min:1 ~n_max:10)
    (fun input ->
      let p = random_profile_of input in
      let b = Strategy.budgets p in
      let ok = ref true in
      for i = 0 to Strategy.n p - 1 do
        let s = Strategy.strategy p i in
        if Array.length s <> Budget.get b i then ok := false;
        Array.iter (fun v -> if v = i || v < 0 || v >= Strategy.n p then ok := false) s
      done;
      !ok)

let prop_string_roundtrip =
  qcheck "serialization roundtrips" (random_budget_gen ~n_min:1 ~n_max:10)
    (fun input ->
      let p = random_profile_of input in
      Strategy.equal p (Strategy.of_string (Strategy.to_string p)))

let prop_realize_arc_count =
  qcheck "realization arc count = total budget" (random_budget_gen ~n_min:1 ~n_max:10)
    (fun input ->
      let p = random_profile_of input in
      Digraph.arc_count (Strategy.realize p) = Budget.total (Strategy.budgets p))

let suite =
  [
    case "make and access" test_make_and_access;
    case "targets sorted" test_sorting;
    case "validation" test_validation;
    case "realize" test_realize;
    case "underlying" test_underlying;
    case "underlying memo" test_underlying_memo;
    case "with_strategy" test_with_strategy;
    case "with_strategy validates" test_with_strategy_validates;
    case "of_digraph roundtrip" test_of_digraph_roundtrip;
    case "string roundtrip" test_string_roundtrip;
    case "of_string rejects" test_of_string_rejects;
    case "equality and hash" test_equal_hash;
    case "relabel" test_relabel;
    prop_relabel_preserves_equilibrium;
    prop_relabel_realization_isomorphic;
    prop_random_valid;
    prop_string_roundtrip;
    prop_realize_arc_count;
    case "of_sorted" test_of_sorted;
  ]
