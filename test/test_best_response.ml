open Helpers
open Bbng_core

(* A small asymmetric fixture: 0 owns two arcs, on a path-ish start. *)
let fixture () =
  let b = Budget.of_list [ 2; 1; 0; 0; 0 ] in
  (* 0 -> {1, 2}, 1 -> 3; vertex 4 isolated *)
  let p = Strategy.make b [| [| 1; 2 |]; [| 3 |]; [||]; [||]; [||] |] in
  (b, p)

let test_exact_connects () =
  (* With the player's arcs removed the rest is {1,3}, {2}, {4}; budget 2
     joins the big component plus one singleton, leaving exactly one
     vertex at Cinf = 25.  All such choices cost 1 + 1 + 2 + 25 = 29 and
     the lexicographically smallest is {1, 2}. *)
  let _, p = fixture () in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  let m = Best_response.exact game p 0 in
  check_int "cost" 29 m.Best_response.cost;
  check_int_array "tie-break" [| 1; 2 |] m.Best_response.targets

let test_exact_is_minimum () =
  (* brute-force double check on a tiny game *)
  let _, p = fixture () in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      let m = Best_response.exact game p 0 in
      (* every alternative strategy costs at least m.cost *)
      let n = 5 in
      Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:2 (fun c ->
          (* unshift around player 0: indices 0..3 map to 1..4 *)
          let targets = Array.map (fun i -> i + 1) c in
          let cost = Game.deviation_cost game p ~player:0 ~targets in
          check_true "minimum" (m.Best_response.cost <= cost)))
    Cost.all_versions

let test_exact_zero_budget () =
  let _, p = fixture () in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  let m = Best_response.exact game p 2 in
  check_int_array "empty strategy" [||] m.Best_response.targets

let test_lemma_2_2 () =
  (* hub of an out-star has local diameter 1 *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.out_star 5) in
  check_true "hub" (Best_response.satisfies_lemma_2_2 p 0);
  check_true "leaf at distance 2, no brace" (Best_response.satisfies_lemma_2_2 p 1);
  (* braced pair with a third vertex: the lemma does not apply to a
     braced vertex with local diameter 2 (vertex 1 here; vertex 0 has
     local diameter 1, so it still qualifies) *)
  let b = Budget.of_list [ 1; 1; 1 ] in
  let braced = Strategy.make b [| [| 1 |]; [| 0 |]; [| 0 |] |] in
  check_true "braced but adjacent to all" (Best_response.satisfies_lemma_2_2 braced 0);
  check_false "braced at distance 2" (Best_response.satisfies_lemma_2_2 braced 1)

let prop_lemma_2_2_is_its_definition =
  (* c_MAX(u) = 1, or c_MAX(u) <= 2 and u in no brace, with u's
     eccentricity taken from a BFS of a freshly realized U(G) *)
  qcheck ~count:200 "lemma 2.2 predicate == its definition"
    (sparse_or_dense_budget_gen ~n_min:1 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let player = seed mod n in
      let d =
        Bbng_graph.Bfs.distances
          (Bbng_graph.Undirected.of_digraph (Strategy.realize p))
          player
      in
      let ecc =
        Array.fold_left
          (fun e x -> if x = Bbng_graph.Bfs.unreachable then max_int else max e x)
          0 d
      in
      let braced =
        Array.exists
          (fun t -> Array.mem player (Strategy.strategy p t))
          (Strategy.strategy p player)
      in
      Best_response.satisfies_lemma_2_2 p player
      = (ecc <= 1 || (ecc = 2 && not braced)))

let test_exact_improvement_none_at_equilibrium () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:6 in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      for player = 0 to 5 do
        check_true
          (Printf.sprintf "%s player %d" (Cost.version_name version) player)
          (Best_response.exact_improvement game p player = None)
      done)
    Cost.all_versions

let test_exact_improvement_found () =
  (* directed path: the first vertex would rather link to the middle in MAX *)
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 7) in
  let game = Game.make Cost.Max (Strategy.budgets p) in
  match Best_response.exact_improvement game p 0 with
  | Some m ->
      check_true "strictly better"
        (m.Best_response.cost < Game.player_cost game p 0)
  | None -> Alcotest.fail "expected an improvement"

let test_swap_equals_exact_for_unit_budget () =
  (* with budget 1, a swap IS a full strategy change *)
  let st = rng 11 in
  for _ = 1 to 20 do
    let p = Strategy.random st (Budget.unit_budgets 6) in
    let game = Game.make Cost.Sum (Budget.unit_budgets 6) in
    for player = 0 to 5 do
      let swap = Best_response.swap_best game p player in
      let full = Best_response.best_improvement game p player in
      match (swap, full) with
      | None, None -> ()
      | Some a, Some b ->
          check_int "same cost" b.Best_response.cost a.Best_response.cost
      | Some _, None -> Alcotest.fail "swap found, exact missed"
      | None, Some _ -> Alcotest.fail "exact found, swap missed"
    done
  done

let test_first_improving_swap_improves () =
  let p = Strategy.of_digraph (Bbng_graph.Generators.directed_path 8) in
  let game = Game.make Cost.Sum (Strategy.budgets p) in
  match Best_response.first_improving_swap game p 0 with
  | Some m -> check_true "improves" (m.Best_response.cost < Game.player_cost game p 0)
  | None -> Alcotest.fail "expected a swap improvement"

let test_greedy_respects_budget () =
  let b = Budget.of_list [ 3; 0; 0; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2; 3 |]; [||]; [||]; [||]; [||]; [||] |] in
  let game = Game.make Cost.Sum b in
  let m = Best_response.greedy game p 0 in
  check_int "budget respected" 3 (Array.length m.Best_response.targets);
  (* greedy on SUM from a star-owner: must reach everyone, its result is optimal here *)
  let exact = Best_response.exact game p 0 in
  check_int "greedy optimal on star" exact.Best_response.cost m.Best_response.cost

let test_engines_agree_and_are_recorded () =
  (* the player's budget picks the pricing engine — distance rows for
     player 0 (b = 2), overlay BFS for player 1 (b = 1) — and the audits
     record it; under either engine an audit agrees with the generic
     evaluator, and reports the size of the scanned candidate space *)
  let _, p = fixture () in
  let n = Strategy.n p in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      let agrees_with_generic player (a : Best_response.audit) =
        let b = Budget.get (Strategy.budgets p) player in
        let brute = ref max_int in
        Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
            let targets = Array.map (fun i -> if i < player then i else i + 1) c in
            brute := min !brute (Game.deviation_cost game p ~player ~targets));
        check_int "current cost" (Game.player_cost game p player)
          a.Best_response.current;
        (match a.Best_response.best with
        | Some m ->
            check_int "best re-priced"
              (Game.deviation_cost game p ~player ~targets:m.Best_response.targets)
              m.Best_response.cost
        | None -> ());
        check_true "improving iff a cheaper strategy exists"
          ((a.Best_response.improving <> None) = (!brute < a.Best_response.current))
      in
      let a0 = Best_response.audit_exact game p 0 in
      let a1 = Best_response.audit_exact game p 1 in
      check_true "rows engine recorded at b=2"
        (a0.Best_response.engine = Deviation_eval.Rows);
      check_true "bfs engine recorded at b=1"
        (a1.Best_response.engine = Deviation_eval.Bfs_overlay);
      agrees_with_generic 0 a0;
      agrees_with_generic 1 a1;
      (* fixture: n = 5, b = 2, no pruning fires for player 0 *)
      check_true "exhaustive candidate count"
        (a0.Best_response.candidates = Bbng_graph.Combinatorics.Exact 6);
      let sw = Best_response.audit_swap game p 0 in
      check_true "swap candidate count"
        (sw.Best_response.candidates = Bbng_graph.Combinatorics.Exact 4))
    Cost.all_versions

let prop_swap_never_beats_exact =
  qcheck "exact best <= best swap" (random_budget_gen ~n_min:2 ~n_max:6)
    (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let game = Game.make Cost.Max (Strategy.budgets p) in
      let player = seed mod n in
      let exact = Best_response.exact game p player in
      match Best_response.swap_best game p player with
      | None -> exact.Best_response.cost <= Game.player_cost game p player
      | Some swap -> exact.Best_response.cost <= swap.Best_response.cost)

let prop_exact_at_most_current =
  qcheck "exact best response never worse than current"
    (random_budget_gen ~n_min:2 ~n_max:6) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          let player = seed mod n in
          (Best_response.exact game p player).Best_response.cost
          <= Game.player_cost game p player)
        Cost.all_versions)

let prop_greedy_never_beats_exact =
  qcheck "greedy >= exact" (random_budget_gen ~n_min:2 ~n_max:6)
    (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let game = Game.make Cost.Sum (Strategy.budgets p) in
      let player = seed mod n in
      (Best_response.greedy game p player).Best_response.cost
      >= (Best_response.exact game p player).Best_response.cost)

(* --- brute-force oracle for [improve] --- *)

(* Every candidate a search scans, in its scan order, each priced by the
   generic evaluator: lexicographic [b]-subsets of the other players for
   the exact searches; for the swap searches, owned arcs in index order,
   each replaced by every target neither owned nor the player, in
   increasing order.  The list ends at the first candidate whose cost
   satisfies [until] (none by default). *)
let oracle_candidates ?(until = fun _ -> false) search game p player =
  let n = Strategy.n p in
  let b = Budget.get (Strategy.budgets p) player in
  let acc = ref [] in
  let add targets =
    let cost = Game.deviation_cost game p ~player ~targets in
    acc := (targets, cost) :: !acc;
    if until cost then raise Exit
  in
  (try
     match search with
     | Best_response.Exact_best | Best_response.First_improving ->
         Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
             add (Array.map (fun i -> if i < player then i else i + 1) c))
     | Best_response.Best_swap | Best_response.First_swap ->
         let owned = Strategy.strategy p player in
         Array.iteri
           (fun drop _ ->
             for v = 0 to n - 1 do
               if v <> player && not (Array.mem v owned) then begin
                 let targets = Array.copy owned in
                 targets.(drop) <- v;
                 Array.sort compare targets;
                 add targets
               end
             done)
           owned
   with Exit -> ());
  List.rev !acc

(* [First_*]: the first strict improvement; [*_best]: the first minimum,
   when it is below the current cost *)
let oracle_improving search current candidates =
  match search with
  | Best_response.First_improving | Best_response.First_swap ->
      List.find_opt (fun (_, cost) -> cost < current) candidates
  | Best_response.Exact_best | Best_response.Best_swap -> (
      match
        List.fold_left
          (fun best ((_, cost) as c) ->
            match best with
            | Some (_, b) when b <= cost -> best
            | _ -> Some c)
          None candidates
      with
      | Some (_, cost) as best when cost < current -> best
      | _ -> None)

let same_move (m : Best_response.move option) expected =
  match (m, expected) with
  | None, None -> true
  | Some m, Some (targets, cost) ->
      m.Best_response.targets = targets && m.Best_response.cost = cost
  | _ -> false

let prop_improve_matches_oracle =
  qcheck ~count:60 "improve agrees with a brute-force oracle"
    (sparse_or_dense_budget_gen ~n_min:2 ~n_max:7) (fun input ->
      let p = random_profile_of input in
      let n = Strategy.n p in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          List.for_all
            (fun player ->
              let current = Game.player_cost game p player in
              List.for_all
                (fun search ->
                  let before = Bbng_obs.Counter.find "br.candidates" in
                  let r = Best_response.improve search game p player in
                  let scanned = Bbng_obs.Counter.find "br.candidates" - before in
                  let audit =
                    match search with
                    | Best_response.First_improving ->
                        Some (Best_response.audit_exact game p player)
                    | Best_response.First_swap ->
                        Some (Best_response.audit_swap game p player)
                    | Best_response.Exact_best | Best_response.Best_swap -> None
                  in
                  r.Best_response.current = current
                  && same_move r.Best_response.improving
                       (oracle_improving search current
                          (oracle_candidates search game p player))
                  &&
                  match audit with
                  | None -> true
                  | Some a ->
                      a.Best_response.improving = r.Best_response.improving
                      && a.Best_response.scanned = scanned)
                [
                  Best_response.Exact_best;
                  Best_response.First_improving;
                  Best_response.Best_swap;
                  Best_response.First_swap;
                ])
            (List.init n Fun.id))
        Cost.all_versions)

(* --- the bounded exhaustive audit against the unbounded oracle scan --- *)

(* [f ()] and the nonzero counter moves it caused, but for the counters
   [except] names *)
let counter_moves ?(except = fun _ -> false) f =
  let before = Bbng_obs.Counter.snapshot () in
  let r = f () in
  let moves =
    List.filter_map
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name before) in
        if d = 0 || except name then None else Some (name, d))
      (Bbng_obs.Counter.snapshot ())
  in
  (r, List.sort compare moves)

(* the counters a bound is allowed to move: the pricer's own and
   [br.bound_pruned] *)
let bounded_only name =
  String.starts_with ~prefix:"deveval." name || name = "br.bound_pruned"

let pp_audit (a : Best_response.audit) =
  let move = function
    | None -> "-"
    | Some (m : Best_response.move) ->
        Printf.sprintf "{%s}=%d"
          (String.concat "," (List.map string_of_int (Array.to_list m.targets)))
          m.cost
  in
  Printf.sprintf "tier %s scanned %d current %d best %s improving %s"
    (Best_response.tier_name a.tier) a.scanned a.current (move a.best)
    (move a.improving)

(* The cheap tier that prunes a player's exhaustive audit, if one does
   (the cost floor, then Lemma 2.2), as the audit it returns and the
   counter it bumps. *)
let cheap_tier game p player ~current =
  let n = Strategy.n p in
  let b = Budget.get (Strategy.budgets p) player in
  let in_degree =
    List.length
      (List.filter
         (fun i -> i <> player && Array.mem player (Strategy.strategy p i))
         (List.init n Fun.id))
  in
  let pruned tier counter =
    Some
      ( {
          Best_response.tier;
          engine = Deviation_eval.Rows;
          scanned = 0;
          candidates = Bbng_graph.Combinatorics.Exact 0;
          current;
          best = None;
          improving = None;
        },
        [ (counter, 1) ] )
  in
  if current <= Cost.cost_floor (Game.version game) ~n ~budget:b ~in_degree then
    pruned Best_response.Cost_floor "br.pruned_floor"
  else if Best_response.satisfies_lemma_2_2 p player then
    pruned Best_response.Lemma_2_2_tier "br.pruned_lemma22"
  else None

(* The audit an unbounded [audit_exact] returns, and the counters it
   moves, derived without its scan: the tier from [cheap_tier], and the
   exhaustive scan replayed over the generic evaluator in scan order,
   stopping at the first improvement, with [best] its first minimum.
   [decided] counts the scanned candidates a bound decides, for
   [br.bound_pruned] (none by default). *)
let unbounded_audit ?(decided = fun _ -> 0) game p player =
  let n = Strategy.n p in
  let b = Budget.get (Strategy.budgets p) player in
  let current = Game.player_cost game p player in
  match cheap_tier game p player ~current with
  | Some pruned -> pruned
  | None ->
      let scanned =
        oracle_candidates ~until:(fun cost -> cost < current)
          Best_response.Exact_best game p player
      in
      let best =
        List.fold_left
          (fun best ((_, cost) as c) ->
            match best with Some (_, c0) when c0 <= cost -> best | _ -> Some c)
          None scanned
        |> Option.map (fun (targets, cost) -> { Best_response.targets; cost })
      in
      let improving =
        match best with Some m when m.cost < current -> best | _ -> None
      in
      ( {
          Best_response.tier = Best_response.Exhaustive;
          engine = Deviation_eval.Rows;
          scanned = List.length scanned;
          candidates = Bbng_graph.Combinatorics.binomial (n - 1) b;
          current;
          best;
          improving;
        },
        List.filter
          (fun (_, d) -> d <> 0)
          [
            ("br.bound_pruned", decided scanned);
            ("br.candidates", List.length scanned);
            ("br.improving_moves", if improving = None then 0 else 1);
          ] )

let prop_bounded_audit_matches_unbounded =
  (* every b = 2 and b = 3 player of a random (often disconnected)
     profile is audited as it plays, where it may improve, and playing
     its exact best response, where the scan runs in full unless a cheap
     tier prunes it; the bounded audit equals the unbounded one field
     for field and moves the same counters *)
  qcheck ~count:80 "bounded audits == unbounded audits"
    (sparse_or_dense_budget_gen ~n_min:3 ~n_max:7) (fun input ->
      let p = random_profile_of input in
      let n = Strategy.n p in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          List.for_all
            (fun player ->
              let b = Budget.get (Strategy.budgets p) player in
              b < 2 || b > 3
              ||
              let best = Best_response.exact game p player in
              let at_best =
                Strategy.with_strategy p ~player ~targets:best.Best_response.targets
              in
              List.for_all
                (fun q ->
                  let bounded, moved =
                    counter_moves ~except:bounded_only (fun () ->
                        Best_response.audit_exact game q player)
                  in
                  let unbounded, moved' = unbounded_audit game q player in
                  (bounded = unbounded && moved = List.sort compare moved')
                  || QCheck.Test.fail_reportf
                       "%s player %d:\n bounded   %s\n unbounded %s"
                       (Cost.version_name version) player (pp_audit bounded)
                       (pp_audit unbounded))
                [ p; at_best ])
            (List.init n Fun.id))
        Cost.all_versions)

let pp_moves m =
  String.concat " " (List.map (fun (c, d) -> Printf.sprintf "%s+%d" c d) m)

(* --- b = 2 scans across batch blocks --- *)

(* n = 65..80 with the player at 62, 63 or 64, so a SUM scan reads its
   singletons off two batch blocks of 63 candidates and the shift past
   the player crosses the edge between them.  The player has budget 2,
   the others random budgets; sparse totals leave G∖i disconnected. *)
let multi_block_gen =
  QCheck.make
    ~print:(fun (n, player, total, seed) ->
      Printf.sprintf "n=%d player=%d total=%d seed=%d" n player total seed)
    QCheck.Gen.(
      int_range 65 80 >>= fun n ->
      int_range 62 64 >>= fun player ->
      oneof [ int_range (n / 2) (n - 4); int_range n (3 * n) ] >>= fun total ->
      int_range 0 10_000 >>= fun seed -> return (n, player, total, seed))

let multi_block_profile (n, player, total, seed) =
  let st = rng seed in
  let b = Budget.to_array (Budget.random_partition st ~n ~total) in
  b.(player) <- 2;
  Strategy.random st (Budget.of_array b)

(* The scanned candidates the bound at [current] decides unpriced.  SUM:
   f({p}) + f({t}) - f(∅) > current, each f the cost of playing that
   set, priced generically.  MAX: the cost is above [current], when
   [current] is at most Cinf = n². *)
let oracle_bound_decided version p player ~current scanned =
  let n = Strategy.n p in
  let f targets =
    Cost.vertex_cost version
      (Undirected.of_digraph
         (Digraph.replace_out_neighbors (Strategy.realize p) player targets))
      player
  in
  let decided =
    match version with
    | Cost.Sum ->
        let empty = f [||] in
        let single = Array.init n (fun t -> if t = player then 0 else f [| t |]) in
        fun targets _ -> single.(targets.(0)) + single.(targets.(1)) - empty > current
    | Cost.Max -> fun _ cost -> current <= n * n && cost > current
  in
  List.length (List.filter (fun (targets, cost) -> decided targets cost) scanned)

let prop_multi_block_audit_matches_unbounded =
  (* the player is audited as it plays and at its exact best response,
     where the scan runs in full unless a cheap tier prunes it; the
     audit equals the unbounded one field for field and moves the
     [br.*] counters alike, [br.bound_pruned] included, so a singleton
     read off the wrong block fails here even where it only loosens
     the bound *)
  qcheck ~count:12 "multi-block b=2 audits == unbounded audits" multi_block_gen
    (fun ((_, player, _, _) as input) ->
      let p = multi_block_profile input in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          let best = Best_response.exact game p player in
          let at_best =
            Strategy.with_strategy p ~player ~targets:best.Best_response.targets
          in
          List.for_all
            (fun q ->
              let audit, moved =
                counter_moves
                  ~except:(String.starts_with ~prefix:"deveval.")
                  (fun () -> Best_response.audit_exact game q player)
              in
              let current = Game.player_cost game q player in
              let oracle, moved' =
                unbounded_audit
                  ~decided:(oracle_bound_decided version q player ~current)
                  game q player
              in
              let moved' = List.sort compare moved' in
              (audit = oracle && moved = moved')
              || QCheck.Test.fail_reportf "%s:\n audit  %s\n   %s\n oracle %s\n   %s"
                   (Cost.version_name version) (pp_audit audit) (pp_moves moved)
                   (pp_audit oracle) (pp_moves moved'))
            [ p; at_best ])
        Cost.all_versions)

(* --- degraded exhaustive audits against the per-candidate loop --- *)

(* [audit_exact]'s exhaustive tier as a per-candidate loop, the oracle
   for its tail-by-tail scan: on a context warmed up unlimited and then
   armed with [budget], each candidate is counted in [br.candidates]
   and priced through [Deviation_eval.cost_within] at the current
   cost; a bound-decided one
   is scanned and counted in [br.bound_pruned], a priced one may become
   [best] or stop the scan as an improvement, and an expired token
   degrades it.  Returns the audit and the [br.*] moves the replay
   stands in for; the [deveval.*] ones it makes itself. *)
let replayed_audit ~budget game p player =
  let n = Strategy.n p in
  let b = Budget.get (Strategy.budgets p) player in
  let ctx = Deviation_eval.make (Game.version game) p ~player in
  let current = Deviation_eval.current_cost ctx in
  Deviation_eval.set_budget ctx budget;
  match cheap_tier game p player ~current with
  | Some pruned -> pruned
  | None ->
      let candidates = ref 0 and bound_pruned = ref 0 and improving_moves = ref 0 in
      let scanned = ref 0 and best = ref None in
      let tier =
        try
          Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
              let targets = Array.map (fun i -> if i < player then i else i + 1) c in
              incr candidates;
              let cost = Deviation_eval.cost_within ctx targets ~limit:current in
              incr scanned;
              if cost = max_int then incr bound_pruned
              else begin
                (match !best with
                | Some (m : Best_response.move) when m.cost <= cost -> ()
                | _ -> best := Some { Best_response.targets; cost });
                if cost < current then begin
                  incr improving_moves;
                  raise Exit
                end
              end);
          Best_response.Exhaustive
        with
        | Exit -> Best_response.Exhaustive
        | Bbng_obs.Budgeted.Expired -> Best_response.Degraded_scan
      in
      let improving =
        match !best with Some m when m.cost < current -> !best | _ -> None
      in
      ( {
          Best_response.tier;
          engine = Deviation_eval.Rows;
          scanned = !scanned;
          candidates = Bbng_graph.Combinatorics.binomial (n - 1) b;
          current;
          best = !best;
          improving;
        },
        List.filter
          (fun (_, d) -> d <> 0)
          [
            ("br.candidates", !candidates);
            ("br.bound_pruned", !bound_pruned);
            ("br.improving_moves", !improving_moves);
            ("br.degraded_scans", if tier = Best_response.Degraded_scan then 1 else 0);
          ] )

(* The work charged by an exhaustive scan's first candidate, on a
   context warmed up unlimited: under SUM it builds the first batch
   block, for its prefix's singleton. *)
let first_candidate_work game p player =
  let module Budgeted = Bbng_obs.Budgeted in
  let b = Budget.get (Strategy.budgets p) player in
  let ctx = Deviation_eval.make (Game.version game) p ~player in
  let current = Deviation_eval.current_cost ctx in
  let token = Budgeted.create ~work_limit:max_int () in
  Deviation_eval.set_budget ctx token;
  let first = Array.init b (fun i -> if i < player then i else i + 1) in
  ignore (Deviation_eval.cost_within ctx first ~limit:current);
  Budgeted.work_done token

let prop_degraded_audit_matches_replay =
  (* every b = 2 and b = 3 player is audited under work limits drawn
     below what its whole scan charges, so the token mostly trips
     mid-tail, and under one drawn below what its first candidate
     charges, so it trips on the first tail's block charge; the audit,
     its work charge and every counter it moves ([deveval.*] included)
     equal the per-candidate replay's *)
  qcheck ~count:80 "degraded b>=2 audits == per-candidate replay"
    (sparse_or_dense_budget_gen ~n_min:3 ~n_max:9) (fun ((_, _, seed) as input) ->
      let module Budgeted = Bbng_obs.Budgeted in
      let p = random_profile_of input in
      let n = Strategy.n p in
      let st = rng (seed + 7) in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          List.for_all
            (fun player ->
              let b = Budget.get (Strategy.budgets p) player in
              b < 2 || b > 3
              ||
              let whole = Budgeted.create ~work_limit:max_int () in
              ignore (Best_response.audit_exact ~budget:whole game p player);
              List.for_all
                (fun work_limit ->
                  let t = Budgeted.create ~work_limit () in
                  let t' = Budgeted.create ~work_limit () in
                  let audited, moved =
                    counter_moves (fun () -> Best_response.audit_exact ~budget:t game p player)
                  in
                  let (replayed, br_moves), moved' =
                    counter_moves (fun () -> replayed_audit ~budget:t' game p player)
                  in
                  let moved' = List.sort compare (br_moves @ moved') in
                  (audited = replayed && moved = moved'
                  && Budgeted.work_done t = Budgeted.work_done t')
                  || QCheck.Test.fail_reportf
                       "%s player %d, work limit %d:\n audit  %s, work %d\n   %s\n\
                        \ replay %s, work %d\n   %s"
                       (Cost.version_name version) player work_limit (pp_audit audited)
                       (Budgeted.work_done t) (pp_moves moved) (pp_audit replayed)
                       (Budgeted.work_done t') (pp_moves moved'))
                (List.init 3 (fun _ ->
                     Random.State.int st (max 1 (Budgeted.work_done whole)))
                @ [
                    Random.State.int st
                      (max 1 (first_candidate_work game p player));
                  ]))
            (List.init n Fun.id))
        Cost.all_versions)

let suite =
  [
    case "exact absorbs isolated vertices" test_exact_connects;
    case "exact is the minimum" test_exact_is_minimum;
    case "exact with zero budget" test_exact_zero_budget;
    case "lemma 2.2 shortcut" test_lemma_2_2;
    prop_lemma_2_2_is_its_definition;
    case "no improvement at equilibrium" test_exact_improvement_none_at_equilibrium;
    case "improvement found off equilibrium" test_exact_improvement_found;
    case "swap = exact for unit budgets" test_swap_equals_exact_for_unit_budget;
    case "first improving swap" test_first_improving_swap_improves;
    case "greedy respects budget" test_greedy_respects_budget;
    case "engines agree and are recorded" test_engines_agree_and_are_recorded;
    prop_swap_never_beats_exact;
    prop_exact_at_most_current;
    prop_greedy_never_beats_exact;
    prop_improve_matches_oracle;
    prop_bounded_audit_matches_unbounded;
    prop_multi_block_audit_matches_unbounded;
    prop_degraded_audit_matches_replay;
  ]
