(* Shared plumbing for the test suites. *)

open Bbng_core
module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_true name b = check_bool name true b
let check_false name b = check_bool name false b
let check_int_list = Alcotest.(check (list int))
let check_int_array name a b = Alcotest.(check (array int)) name a b
let check_int_option = Alcotest.(check (option int))

let rng seed = Random.State.make [| seed |]

(* Small-graph fixtures used across suites. *)
let path5 = Bbng_graph.Generators.path_graph 5
let cycle6 = Bbng_graph.Generators.cycle_graph 6
let star7 = Bbng_graph.Generators.star_graph 7
let k5 = Bbng_graph.Generators.complete_graph 5
let two_triangles =
  Undirected.of_edges ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]

let game version budgets = Game.make version budgets

let certify version profile =
  Equilibrium.certify (game version (Strategy.budgets profile)) profile

let assert_equilibrium name version profile =
  match certify version profile with
  | Equilibrium.Equilibrium -> ()
  | v ->
      Alcotest.failf "%s: expected equilibrium, got %a" name
        Equilibrium.pp_verdict v

let assert_not_equilibrium name version profile =
  match certify version profile with
  | Equilibrium.Refuted _ -> ()
  | v ->
      Alcotest.failf "%s: expected a refutation, got %a" name
        Equilibrium.pp_verdict v

let diameter_exn g =
  match Bbng_graph.Distances.diameter g with
  | Some d -> d
  | None -> Alcotest.fail "diameter of a disconnected graph"

(* QCheck integration: register properties as alcotest cases. *)
let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name gen prop)

(* Generators for random graph/game inputs. *)
let gnp_gen ~n_min ~n_max =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(
      pair (int_range n_min n_max) (int_range 0 10_000))

let random_gnp_of (n, seed) =
  Bbng_graph.Generators.random_gnp (rng seed) ~n ~p:0.4

let random_connected_of (n, seed) =
  Bbng_graph.Generators.random_connected_gnp (rng seed) ~n ~p:0.3

let random_budget_gen ~n_min ~n_max =
  QCheck.make
    ~print:(fun (n, total, seed) -> Printf.sprintf "n=%d total=%d seed=%d" n total seed)
    QCheck.Gen.(
      int_range n_min n_max >>= fun n ->
      int_range 0 (n * (n - 1)) >>= fun total ->
      int_range 0 10_000 >>= fun seed -> return (n, total, seed))

let random_budget_of (n, total, seed) = Budget.random_partition (rng seed) ~n ~total

let random_profile_of (n, total, seed) =
  let st = rng seed in
  let b = Budget.random_partition st ~n ~total in
  Strategy.random st b

(* Like [random_budget_gen], but half the cases draw a total budget
   below n - 1, so disconnected profiles (whose costs carry the C_inf
   penalty) are well represented. *)
let sparse_or_dense_budget_gen ~n_min ~n_max =
  QCheck.make
    ~print:(fun (n, total, seed) ->
      Printf.sprintf "n=%d total=%d seed=%d" n total seed)
    QCheck.Gen.(
      int_range n_min n_max >>= fun n ->
      oneof [ int_range 0 (max 0 (n - 2)); int_range 0 (n * (n - 1)) ]
      >>= fun total ->
      int_range 0 10_000 >>= fun seed -> return (n, total, seed))

(* Oracle for the library's one walk of the profile space
   ([Equilibrium.iter_profiles_range]): every profile of [budgets] by
   plain recursion, player 0's combination outermost, each player's
   combinations in lexicographic order over the other players. *)
let oracle_iter_profiles budgets f =
  let n = Budget.n budgets in
  let strategies = Array.make n [||] in
  let unshift player c =
    Array.map (fun i -> if i < player then i else i + 1) c
  in
  let rec assign player =
    if player = n then
      f (Strategy.make budgets (Array.map Array.copy strategies))
    else
      Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1)
        ~k:(Budget.get budgets player) (fun c ->
          strategies.(player) <- unshift player c;
          assign (player + 1))
  in
  assign 0
