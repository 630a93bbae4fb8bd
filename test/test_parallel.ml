open Helpers
open Bbng_core

let test_sequential_fallback () =
  check_true "domains=1 found"
    (Parallel.find_map ~domains:1 ~n:10 (fun i -> if i = 5 then Some i else None)
    = Some 5);
  check_true "domains=1 not found"
    (Parallel.find_map ~domains:1 ~n:10 (fun _ -> None) = None);
  check_true "domains=1 map" (Parallel.map ~domains:1 ~n:3 Fun.id = [| 0; 1; 2 |])

let test_find_map_covers_every_index () =
  (* each index must be evaluated exactly once when nothing is found *)
  let hits = Array.init 64 (fun _ -> Atomic.make 0) in
  check_true "nothing found"
    (Parallel.find_map ~domains:4 ~n:64 (fun i ->
         Atomic.incr hits.(i);
         None)
    = None);
  Array.iteri
    (fun i c -> check_int (Printf.sprintf "index %d hit once" i) 1 (Atomic.get c))
    hits

let test_find_map () =
  check_true "found"
    (Parallel.find_map ~domains:3 ~n:50 (fun i -> if i = 31 then Some i else None)
    = Some 31);
  check_true "not found"
    (Parallel.find_map ~domains:3 ~n:50 (fun _ -> None) = None);
  check_true "n=0" (Parallel.find_map ~domains:3 ~n:0 (fun i -> Some i) = None)

let test_recommended_positive () =
  check_true "at least one" (Parallel.recommended_domains () >= 1)

(* The docs promise find_map is "first-ish" because early exit abandons
   remaining work — the chunks-abandoned counter makes that checkable.
   With the hit at index 0, the worker owning index 0 always finds it
   on its first probe and then abandons the rest of its own block, so
   the counter must move regardless of scheduling. *)
let test_find_map_abandons_work () =
  let abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned" in
  let spawned = Bbng_obs.Counter.make "parallel.domains_spawned" in
  let before = Bbng_obs.Counter.get abandoned in
  let spawned_before = Bbng_obs.Counter.get spawned in
  let hit =
    Parallel.find_map ~domains:4 ~n:10_000 (fun i ->
        if i = 0 then Some i else None)
  in
  check_int_option "early hit found" (Some 0) hit;
  check_int "domains were spawned" (spawned_before + 3) (Bbng_obs.Counter.get spawned);
  check_true "early exit abandoned work"
    (Bbng_obs.Counter.get abandoned > before)

let test_no_abandonment_without_early_exit () =
  let abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned" in
  let before = Bbng_obs.Counter.get abandoned in
  check_true "full scan"
    (Parallel.find_map ~domains:4 ~n:1_000 (fun _ -> None) = None);
  check_int "nothing abandoned" before (Bbng_obs.Counter.get abandoned)

let test_parallel_certification_agrees () =
  (* parallel and sequential certification agree on equilibria and on
     refuted profiles *)
  let eq = Bbng_constructions.Tripod.profile ~k:4 in
  let eq_game = Game.make Cost.Max (Strategy.budgets eq) in
  check_true "equilibrium, parallel" (Equilibrium.is_nash_parallel ~domains:4 eq_game eq);
  check_true "matches sequential" (Equilibrium.is_nash eq_game eq);
  let bad = Strategy.of_digraph (Bbng_graph.Generators.directed_path 8) in
  let bad_game = Game.make Cost.Max (Strategy.budgets bad) in
  check_false "refuted, parallel" (Equilibrium.is_nash_parallel ~domains:4 bad_game bad);
  match Equilibrium.certify_parallel ~domains:4 bad_game bad with
  | Equilibrium.Equilibrium -> Alcotest.fail "expected refutation"
  | Equilibrium.Refuted r ->
      (* the witness must replay, whichever player it names *)
      let replay =
        Game.deviation_cost bad_game bad ~player:r.Equilibrium.player
          ~targets:r.Equilibrium.better.Best_response.targets
      in
      check_int "parallel witness honest" r.Equilibrium.better.Best_response.cost replay;
      check_true "strictly better" (replay < r.Equilibrium.current_cost)
  | Equilibrium.Degraded _ -> Alcotest.fail "unbudgeted certify cannot degrade"

let prop_parallel_matches_sequential =
  qcheck ~count:40 "parallel is_nash == sequential is_nash"
    (random_budget_gen ~n_min:2 ~n_max:7) (fun input ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          Equilibrium.is_nash game p = Equilibrium.is_nash_parallel ~domains:3 game p)
        Cost.all_versions)

(* --- dynamic-scheduling map (census shards) --- *)

let test_map_dynamic_matches_sequential () =
  let f i = (i * 17) mod 5 in
  let seq = Array.init 40 f in
  List.iter
    (fun domains ->
      check_int_array
        (Printf.sprintf "domains=%d" domains)
        seq
        (Parallel.map_dynamic ~domains ~n:40 f))
    [ 1; 2; 4 ]

let test_map_dynamic_each_index_once () =
  (* dynamic claiming still evaluates every index exactly once, and each
     lands in its own slot (per-cell writes are single-owner) *)
  let hits = Array.make 60 0 in
  let got =
    Parallel.map_dynamic ~domains:3 ~n:60 (fun i ->
        hits.(i) <- hits.(i) + 1;
        i)
  in
  check_true "every index exactly once" (Array.for_all (fun c -> c = 1) hits);
  check_int_array "identity in order" (Array.init 60 Fun.id) got

let test_map_dynamic_empty () =
  check_int "n=0" 0 (Array.length (Parallel.map_dynamic ~n:0 (fun i -> i)))

let suite =
  [
    case "sequential fallback" test_sequential_fallback;
    case "covers every index once" test_find_map_covers_every_index;
    case "find_map" test_find_map;
    case "recommended domains" test_recommended_positive;
    case "find_map abandons work on early hit" test_find_map_abandons_work;
    case "no abandonment without early exit" test_no_abandonment_without_early_exit;
    slow_case "parallel certification agrees" test_parallel_certification_agrees;
    prop_parallel_matches_sequential;
    case "map_dynamic matches sequential" test_map_dynamic_matches_sequential;
    case "map_dynamic covers every index once" test_map_dynamic_each_index_once;
    case "map_dynamic empty" test_map_dynamic_empty;
  ]
