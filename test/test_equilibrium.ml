open Helpers
open Bbng_core

let test_certify_equilibrium () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:7 in
  List.iter
    (fun version ->
      match certify version p with
      | Equilibrium.Equilibrium -> ()
      | v -> Alcotest.failf "sun: %a" Equilibrium.pp_verdict v)
    Cost.all_versions

let test_certify_refutation_witness () =
  (* a directed path is not an equilibrium: the head can do better *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 6) in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  match Equilibrium.certify game p with
  | Equilibrium.Equilibrium -> Alcotest.fail "path should not be stable"
  | Equilibrium.Refuted r ->
      check_true "witness improves"
        (r.Equilibrium.better.Best_response.cost < r.Equilibrium.current_cost);
      (* replay the witness to confirm it is real *)
      let replay =
        Game.deviation_cost game p ~player:r.Equilibrium.player
          ~targets:r.Equilibrium.better.Best_response.targets
      in
      check_int "witness cost is honest" r.Equilibrium.better.Best_response.cost replay
  | Equilibrium.Degraded _ -> Alcotest.fail "unbudgeted certify cannot degrade"

let test_swap_stability_weaker () =
  (* every Nash equilibrium is swap stable *)
  let p = Bbng_constructions.Tripod.profile ~k:2 in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  check_true "nash" (Equilibrium.is_nash game p);
  check_true "swap stable" (Equilibrium.is_swap_stable game p)

let test_digraph_is_nash () =
  check_true "tripod via digraph"
    (Equilibrium.digraph_is_nash Cost.Max (Bbng_graph.Generators.tripod 2));
  check_false "path via digraph"
    (Equilibrium.digraph_is_nash Cost.Max (Bbng_graph.Generators.directed_path 6))

let test_iter_profiles_count () =
  (* (1,1,1): each player picks 1 of 2 others: 8 profiles *)
  let b = Budget.unit_budgets 3 in
  let count = ref 0 in
  Equilibrium.iter_profiles b (fun _ -> incr count);
  check_int "8 profiles" 8 !count;
  check_int "count_profiles agrees" 8 (Equilibrium.count_profiles b)

let test_count_profiles_formula () =
  let b = Budget.of_list [ 2; 1; 0; 1 ] in
  (* C(3,2) * C(3,1) * C(3,0) * C(3,1) = 3*3*1*3 = 27 *)
  check_int "product of binomials" 27 (Equilibrium.count_profiles b)

let test_enumerate_equilibria_n2 () =
  (* n=2, budgets (1,1): the brace is the unique profile and is an NE *)
  let game = Game.make Cost.Sum (Budget.unit_budgets 2) in
  let eqs = Equilibrium.enumerate_equilibria game in
  check_int "unique equilibrium" 1 (List.length eqs)

let test_enumerate_equilibria_exist_n4 () =
  (* Theorem 2.3: equilibria exist for every instance; check small ones
     exhaustively in both versions. *)
  List.iter
    (fun version ->
      List.iter
        (fun budgets ->
          let b = Budget.of_list budgets in
          let game = Game.make version b in
          let eqs = Equilibrium.enumerate_equilibria ~limit:1 game in
          check_true
            (Printf.sprintf "NE exists for %s %s" (Cost.version_name version)
               (String.concat "," (List.map string_of_int budgets)))
            (eqs <> []))
        [ [ 1; 1; 1 ]; [ 0; 1; 1; 1 ]; [ 2; 1; 1 ]; [ 0; 0; 2; 1 ]; [ 1; 1; 1; 1 ] ])
    Cost.all_versions

let test_limit_respected () =
  let game = Game.make Cost.Max (Budget.unit_budgets 4) in
  let eqs = Equilibrium.enumerate_equilibria ~limit:2 game in
  check_true "at most 2" (List.length eqs <= 2)

let test_equilibrium_diameter_range () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  match Equilibrium.equilibrium_diameter_range game with
  | Some (lo, hi) ->
      check_true "ordered" (lo <= hi);
      (* Theorem 4.1 -> diameter at most 4 for unit SUM equilibria *)
      check_true "structural bound" (hi <= 4)
  | None -> Alcotest.fail "unit-budget games have equilibria"

let test_all_enumerated_are_nash () =
  let game = Game.make Cost.Max (Budget.of_list [ 1; 1; 0; 1 ]) in
  let eqs = Equilibrium.enumerate_equilibria game in
  check_true "non-empty" (eqs <> []);
  List.iter (fun p -> check_true "verified" (Equilibrium.is_nash game p)) eqs

(* Lemma 3.1: when sigma >= n-1, every equilibrium is connected. *)
let prop_lemma_3_1_connected_equilibria =
  qcheck ~count:25 "Lemma 3.1: equilibria of connectable instances are connected"
    (random_budget_gen ~n_min:2 ~n_max:4) (fun input ->
      let b = random_budget_of input in
      List.for_all
        (fun version ->
          let game = Game.make version b in
          List.for_all
            (fun p ->
              (not (Budget.connectable b))
              || Bbng_graph.Components.is_connected (Strategy.underlying p))
            (Equilibrium.enumerate_equilibria game))
        Cost.all_versions)

(* Section 3: when sigma = n-1, every equilibrium is a tree. *)
let test_tree_instances_have_tree_equilibria () =
  List.iter
    (fun budgets ->
      let b = Budget.of_list budgets in
      List.iter
        (fun version ->
          let game = Game.make version b in
          List.iter
            (fun p ->
              check_true
                (Printf.sprintf "tree NE for %s %s"
                   (String.concat "," (List.map string_of_int budgets))
                   (Cost.version_name version))
                (Bbng_graph.Trees.is_tree (Strategy.underlying p)))
            (Equilibrium.enumerate_equilibria game))
        Cost.all_versions)
    [ [ 0; 1; 1; 1 ]; [ 0; 0; 1; 2 ]; [ 0; 0; 0; 3 ]; [ 1; 1; 1; 0; 1 ] ]

let prop_existence_construction_certifies =
  qcheck ~count:40 "Existence.construct certifies as NE in both versions"
    (random_budget_gen ~n_min:2 ~n_max:7) (fun input ->
      let b = random_budget_of input in
      let p = Bbng_constructions.Existence.construct b in
      List.for_all
        (fun version -> Equilibrium.is_nash (Game.make version b) p)
        Cost.all_versions)

(* --- ranged enumeration (census shards) --- *)

let profiles_in_range b ~lo ~hi =
  let acc = ref [] in
  Equilibrium.iter_profiles_range b ~lo ~hi (fun p ->
      acc := Strategy.to_string p :: !acc);
  List.rev !acc

let test_iter_profiles_range_replays () =
  let b = Budget.of_list [ 2; 1; 1; 0 ] in
  let total = Equilibrium.count_profiles b in
  let all = ref [] in
  oracle_iter_profiles b (fun p -> all := Strategy.to_string p :: !all);
  let all = List.rev !all in
  check_int "space size" total (List.length all);
  check_true "full range = recursive oracle"
    (profiles_in_range b ~lo:0 ~hi:total = all);
  let walked = ref [] in
  Equilibrium.iter_profiles b (fun p -> walked := Strategy.to_string p :: !walked);
  check_true "iter_profiles = recursive oracle" (List.rev !walked = all);
  (* every split point partitions the enumeration *)
  List.iter
    (fun mid ->
      check_true
        (Printf.sprintf "split at %d" mid)
        (profiles_in_range b ~lo:0 ~hi:mid @ profiles_in_range b ~lo:mid ~hi:total
        = all))
    [ 0; 1; total / 2; total - 1; total ]

let test_iter_profiles_range_guards () =
  let b = Budget.unit_budgets 3 in
  check_true "lo < 0 rejected"
    (match Equilibrium.iter_profiles_range b ~lo:(-1) ~hi:1 (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false);
  check_true "hi past the space rejected"
    (match Equilibrium.iter_profiles_range b ~lo:0 ~hi:9 (fun _ -> ()) with
    | exception Invalid_argument _ -> true
    | () -> false);
  (* empty slice: no calls, no error *)
  Equilibrium.iter_profiles_range b ~lo:4 ~hi:4 (fun _ ->
      Alcotest.fail "empty range produced a profile");
  (* a saturated space cannot be walked: the full range raises before
     producing anything *)
  check_true "saturated space rejected"
    (match
       Equilibrium.iter_profiles (Budget.uniform ~n:40 ~budget:18) (fun _ ->
           Alcotest.fail "saturated walk produced a profile")
     with
    | exception Invalid_argument _ -> true
    | () -> false)

let prop_range_partition_agrees =
  qcheck ~count:50 "ranged enumeration partitions iter_profiles"
    (random_budget_gen ~n_min:2 ~n_max:5) (fun (n, total, seed) ->
      let b = Budget.random_partition (rng seed) ~n ~total in
      let space = Equilibrium.count_profiles b in
      space > 100_000
      ||
      let all = ref [] in
      oracle_iter_profiles b (fun p -> all := Strategy.to_string p :: !all);
      let mid = space * (seed mod 100) / 100 in
      profiles_in_range b ~lo:0 ~hi:mid @ profiles_in_range b ~lo:mid ~hi:space
      = List.rev !all)

(* --- every exhaustive consumer agrees with one oracle pass --- *)

(* (min, max) of a non-empty list, [None] for an empty one *)
let extremes = function
  | [] -> None
  | v :: vs -> Some (List.fold_left min v vs, List.fold_left max v vs)

let oracle_prices ~opt = function
  | None -> None
  | Some (lo, hi) ->
      Some
        {
          Poa.anarchy = { Poa.num = hi; den = opt };
          stability = { Poa.num = lo; den = opt };
        }

(* [eqs] are the oracle's equilibria of the scanned prefix, as
   (profile, diameter) pairs in walk order *)
let census_matches ~total ~scanned eqs c =
  let open Bbng_analysis.Census in
  let ds = List.map snd eqs in
  let keys = List.map (fun (p, _) -> Strategy.to_string p) eqs in
  c.total_profiles = total
  && c.scanned_profiles = scanned
  && c.equilibria = List.length eqs
  && c.diameter_histogram
     = List.map
         (fun d -> (d, List.length (List.filter (( = ) d) ds)))
         (List.sort_uniq compare ds)
  && (match extremes ds with
     | None -> c.min_diameter = None && c.max_diameter = None
     | Some (lo, hi) -> c.min_diameter = Some lo && c.max_diameter = Some hi)
  && List.fold_left (fun a (_, k) -> a + k) 0 c.iso_class_counts
     = List.length eqs
  && List.for_all
       (fun rep -> List.mem (Strategy.to_string rep) keys)
       c.iso_classes

let census_is ~total ~scanned eqs = function
  | Bbng_analysis.Census.Partial _ -> false
  | Bbng_analysis.Census.Complete c -> census_matches ~total ~scanned eqs c

(* One recursive oracle walk with [is_nash] yields everything the
   exhaustive consumers compute: the equilibria in order (with their
   profile indices), their diameter range and histogram, the OPT
   diameter and welfare, and both price pairs. *)
let prop_exhaustive_consumers_agree =
  qcheck ~count:100 "exhaustive consumers == one oracle pass"
    (QCheck.pair (random_budget_gen ~n_min:3 ~n_max:5) QCheck.small_nat)
    (fun (input, limit_seed) ->
      let b = random_budget_of input in
      Equilibrium.count_profiles b > 5_000
      || List.for_all
           (fun version ->
             let game = Game.make version b in
             let total = ref 0 and eqs = ref [] in
             let opt_d = ref max_int and opt_w = ref max_int in
             oracle_iter_profiles b (fun p ->
                 let d = Cost.social_cost (Strategy.underlying p) in
                 let w = Game.social_welfare game p in
                 opt_d := min !opt_d d;
                 opt_w := min !opt_w w;
                 if Equilibrium.is_nash game p then
                   eqs := (!total, p, d, w) :: !eqs;
                 incr total);
             let total = !total and eqs = List.rev !eqs in
             let keys l = List.map (fun (_, p, _, _) -> Strategy.to_string p) l in
             let diameters l = List.map (fun (_, p, d, _) -> (p, d)) l in
             let range = extremes (List.map (fun (_, _, d, _) -> d) eqs) in
             (* a limit in [1, #equilibria + 1]: the last one never binds *)
             let limit = 1 + (limit_seed mod (List.length eqs + 1)) in
             let first = List.filteri (fun i _ -> i < limit) eqs in
             let limit_scanned =
               if List.length first < limit then total
               else
                 let i, _, _, _ = List.nth first (limit - 1) in
                 i + 1
             in
             List.map Strategy.to_string (Equilibrium.enumerate_equilibria game)
             = keys eqs
             && List.map Strategy.to_string
                  (Equilibrium.enumerate_equilibria ~limit game)
                = keys first
             && Equilibrium.equilibrium_diameter_range game = range
             && Poa.opt_diameter_exact b = Some !opt_d
             (* n >= 3, so both OPTs are positive (test_edge_cases pins
                n = 1's OPT of 0) *)
             && Poa.exact_prices game = oracle_prices ~opt:!opt_d range
             && Poa.exact_welfare_prices game
                = oracle_prices ~opt:!opt_w
                    (extremes (List.map (fun (_, _, _, w) -> w) eqs))
             && census_is ~total ~scanned:total (diameters eqs)
                  (Bbng_analysis.Census.run game)
             && census_is ~total ~scanned:limit_scanned (diameters first)
                  (Bbng_analysis.Census.run ~limit game))
           Cost.all_versions)

(* --- the grouped verdict walk agrees with per-profile is_nash --- *)

(* A random budget vector whose last budget is kept, forced to 0 or
   forced to n - 1 (the last two leave groups of one profile), and a
   random range, a one-profile range and the whole space. *)
let grouped_gen =
  QCheck.make
    ~print:(fun ((n, total, seed), last, (a, b)) ->
      Printf.sprintf "n=%d total=%d seed=%d last=%d range=(%d,%d)" n total seed
        last a b)
    QCheck.Gen.(
      triple
        (int_range 1 5 >>= fun n ->
         int_range 0 (n * (n - 1)) >>= fun total ->
         int_range 0 10_000 >>= fun seed -> return (n, total, seed))
        (int_range 0 2)
        (pair (int_range 0 1_000_000) (int_range 0 1_000_000)))

let grouped_budgets ((n, _, _) as input) last =
  let b = Budget.to_array (random_budget_of input) in
  (match last with
  | 1 -> b.(n - 1) <- 0
  | 2 -> b.(n - 1) <- n - 1
  | _ -> ());
  Budget.of_list (Array.to_list b)

let verdicts_in_range game ~lo ~hi =
  let acc = ref [] in
  Equilibrium.iter_verdicts_range game ~lo ~hi (fun p nash ->
      acc := (Strategy.to_string p, nash) :: !acc);
  List.rev !acc

let prop_grouped_walk_agrees =
  qcheck ~count:100 "grouped verdict walk == per-profile is_nash" grouped_gen
    (fun (input, last, (a, b)) ->
      let budgets = grouped_budgets input last in
      let total = Equilibrium.count_profiles budgets in
      total > 3_000
      || List.for_all
           (fun version ->
             let game = Game.make version budgets in
             let oracle = ref [] in
             oracle_iter_profiles budgets (fun p ->
                 oracle :=
                   (Strategy.to_string p, Equilibrium.is_nash game p) :: !oracle);
             let oracle = Array.of_list (List.rev !oracle) in
             let slice lo hi = Array.to_list (Array.sub oracle lo (hi - lo)) in
             let lo = a mod (total + 1) and x = b mod (total + 1) in
             let lo, hi = (min lo x, max lo x) in
             let one = a mod total in
             List.for_all
               (fun (lo, hi) -> verdicts_in_range game ~lo ~hi = slice lo hi)
               [ (0, total); (lo, hi); (one, one + 1) ])
           Cost.all_versions)

(* A census cut mid-group, by an expired work budget or by [~limit],
   aggregates exactly the oracle's equilibria of its scanned prefix:
   the same equilibria, diameters and isomorphism classes. *)
let test_census_cut_mid_group () =
  List.iter
    (fun (budgets, version) ->
      let game = Game.make version budgets in
      let n = Budget.n budgets in
      let k =
        Bbng_graph.Combinatorics.binomial_sat (n - 1) (Budget.get budgets (n - 1))
      in
      let total = Equilibrium.count_profiles budgets in
      let eqs = ref [] and i = ref 0 in
      oracle_iter_profiles budgets (fun p ->
          if Equilibrium.is_nash game p then
            eqs := (!i, p, Game.social_cost game p) :: !eqs;
          incr i);
      let eqs = List.rev !eqs in
      let prefix scanned =
        List.filter_map
          (fun (i, p, d) -> if i < scanned then Some (p, d) else None)
          eqs
      in
      let classes scanned =
        List.fold_left
          (fun acc (p, _) -> Bbng_analysis.Structure.Iso_acc.add acc p)
          Bbng_analysis.Structure.Iso_acc.empty (prefix scanned)
        |> Bbng_analysis.Structure.Iso_acc.classes
        |> List.map (fun (rep, c) -> (Strategy.to_string rep, c))
      in
      let agrees what scanned c =
        let open Bbng_analysis.Census in
        check_true (what ^ ": scanned prefix")
          (census_matches ~total ~scanned (prefix scanned) c);
        check_true (what ^ ": classes")
          (List.map (fun (rep, c) -> (Strategy.to_string rep, c)) c.iso_class_counts
          = classes scanned)
      in
      (* the census charges n work units a profile: a limit of
         n * (3k + 1) expires past profile 3k + 1, inside the 4th group *)
      let budget = Bbng_obs.Budgeted.create ~work_limit:(n * ((3 * k) + 1)) () in
      (match Bbng_analysis.Census.run ~budget game with
      | Bbng_analysis.Census.Complete _ -> Alcotest.fail "expected a partial census"
      | Bbng_analysis.Census.Partial { census; unscanned; _ } ->
          let scanned = census.Bbng_analysis.Census.scanned_profiles in
          check_int "budget expired mid-group" ((3 * k) + 1) scanned;
          check_true "unscanned suffix" (unscanned = [ (scanned, total) ]);
          agrees "expired" scanned census);
      (* the first equilibrium that ends its scan mid-group *)
      match List.find_opt (fun (i, _, _) -> (i + 1) mod k <> 0) eqs with
      | None -> Alcotest.fail "no equilibrium inside a group"
      | Some (i, _, _) ->
          let limit = List.length (prefix (i + 1)) in
          (match Bbng_analysis.Census.run ~limit game with
          | Bbng_analysis.Census.Partial _ -> Alcotest.fail "a limit stop is complete"
          | Bbng_analysis.Census.Complete c ->
              check_int "limit: scanned through its last equilibrium" (i + 1)
                c.Bbng_analysis.Census.scanned_profiles;
              agrees "limit" (i + 1) c))
    [
      (Budget.unit_budgets 5, Cost.Sum);
      (Budget.unit_budgets 5, Cost.Max);
      (Budget.of_list [ 1; 2; 0; 1; 2 ], Cost.Sum);
      (Budget.of_list [ 1; 2; 0; 1; 2 ], Cost.Max);
    ]

(* --- the refutation's current cost comes from the search --- *)

let refutation_cost_is_exact game profile = function
  | Equilibrium.Refuted r ->
      r.Equilibrium.current_cost
      = Game.player_cost game profile r.Equilibrium.player
  | Equilibrium.Equilibrium -> true
  | Equilibrium.Degraded _ -> false

let prop_refutation_current_cost =
  qcheck ~count:80 "refutation current_cost == Game.player_cost"
    (sparse_or_dense_budget_gen ~n_min:2 ~n_max:6) (fun input ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          List.for_all
            (refutation_cost_is_exact game p)
            [
              Equilibrium.certify game p;
              Equilibrium.certify_parallel ~domains:2 game p;
              Equilibrium.certify_swap game p;
            ])
        Cost.all_versions)

(* --- equilibrium.early_exits: a refutation that skipped players --- *)

(* Directed path k-1 -> ... -> 1 -> 0 (budgets 0,1,...,1) under SUM:
   only the head k-1 has an improving move, and it is the last player. *)
let reversed_path k =
  let g = Bbng_graph.Generators.directed_path k in
  Strategy.of_digraph
    (Bbng_graph.Digraph.of_arcs ~n:k
       (List.map (fun (u, v) -> (k - 1 - u, k - 1 - v)) (Bbng_graph.Digraph.arcs g)))

let early_exits_during f =
  let before = Bbng_obs.Counter.find "equilibrium.early_exits" in
  let v = f () in
  (v, Bbng_obs.Counter.find "equilibrium.early_exits" - before)

let via_certificate certifier game p =
  Equilibrium.certificate_verdict (certifier game p)

let test_early_exits_on_last_player () =
  let p = reversed_path 4 in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  List.iter
    (fun (name, certifier) ->
      match early_exits_during (fun () -> certifier game p) with
      | Equilibrium.Refuted r, exits ->
          check_int (name ^ ": refuted by the last player") 3 r.Equilibrium.player;
          check_int (name ^ ": no player was skipped") 0 exits
      | v, _ -> Alcotest.failf "%s: %a" name Equilibrium.pp_verdict v)
    [
      ("certify", Equilibrium.certify);
      ("parallel/1", Equilibrium.certify_parallel ~domains:1);
      ("parallel/2", Equilibrium.certify_parallel ~domains:2);
      ("cert", via_certificate (Equilibrium.certify_cert ?budget:None));
      ("swap cert", via_certificate (Equilibrium.certify_swap_cert ?budget:None));
      ( "parallel cert/2",
        via_certificate
          (Equilibrium.certify_parallel_cert ~domains:2 ?budget:None) );
    ];
  (* the forward path refutes on player 0: players were skipped, except
     by the parallel certificate, which audits every player *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 4) in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  List.iter
    (fun (name, expected, certifier) ->
      let _, exits = early_exits_during (fun () -> certifier game p) in
      check_int (name ^ ": early exits counted") expected exits)
    [
      ("certify", 1, Equilibrium.certify);
      ("parallel/1", 1, Equilibrium.certify_parallel ~domains:1);
      ("cert", 1, via_certificate (Equilibrium.certify_cert ?budget:None));
      ( "swap cert",
        1,
        via_certificate (Equilibrium.certify_swap_cert ?budget:None) );
      ( "parallel cert/2",
        0,
        via_certificate
          (Equilibrium.certify_parallel_cert ~domains:2 ?budget:None) );
    ]

let suite =
  [
    case "certify equilibrium" test_certify_equilibrium;
    case "refutation witness is honest" test_certify_refutation_witness;
    case "swap stability is implied" test_swap_stability_weaker;
    case "digraph_is_nash" test_digraph_is_nash;
    case "iter_profiles count" test_iter_profiles_count;
    case "count_profiles formula" test_count_profiles_formula;
    case "n=2 unique equilibrium" test_enumerate_equilibria_n2;
    slow_case "equilibria exist (exhaustive small)" test_enumerate_equilibria_exist_n4;
    case "enumeration limit" test_limit_respected;
    case "equilibrium diameter range" test_equilibrium_diameter_range;
    case "enumerated profiles are Nash" test_all_enumerated_are_nash;
    prop_existence_construction_certifies;
    prop_lemma_3_1_connected_equilibria;
    slow_case "tree instances have tree equilibria (Sec 3)"
      test_tree_instances_have_tree_equilibria;
    case "iter_profiles_range replays" test_iter_profiles_range_replays;
    case "iter_profiles_range guards" test_iter_profiles_range_guards;
    prop_refutation_current_cost;
    case "early exits skip players" test_early_exits_on_last_player;
    prop_range_partition_agrees;
    prop_exhaustive_consumers_agree;
    prop_grouped_walk_agrees;
    case "census cut mid-group" test_census_cut_mid_group;
  ]
