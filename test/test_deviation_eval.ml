open Helpers
open Bbng_core

let ctx version p player = Deviation_eval.make version p ~player

let test_accessors () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:5 in
  let c = ctx Cost.Sum p 2 in
  check_int "player" 2 (Deviation_eval.player c);
  check_true "version" (Deviation_eval.version c = Cost.Sum)

let test_current_cost_matches_game () =
  let p = Bbng_constructions.Binary_tree.profile ~depth:2 in
  List.iter
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      for player = 0 to Strategy.n p - 1 do
        check_int
          (Printf.sprintf "%s player %d" (Cost.version_name version) player)
          (Game.player_cost game p player)
          (Deviation_eval.current_cost (ctx version p player))
      done)
    Cost.all_versions

let test_cost_matches_deviation_cost () =
  (* hand-picked deviations incl. ones that disconnect the graph *)
  let b = Budget.of_list [ 2; 1; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 3 |]; [||]; [||]; [||] |] in
  List.iter
    (fun version ->
      let game = Game.make version b in
      let c = ctx version p 0 in
      List.iter
        (fun targets ->
          check_int
            (Printf.sprintf "%s {%s}" (Cost.version_name version)
               (String.concat ","
                  (List.map string_of_int (Array.to_list targets))))
            (Game.deviation_cost game p ~player:0 ~targets)
            (Deviation_eval.cost c targets))
        [ [| 1; 2 |]; [| 1; 4 |]; [| 3; 4 |]; [| 2; 4 |]; [| 1; 3 |] ])
    Cost.all_versions

let test_kappa_counting () =
  (* everything isolated except the player's arcs: deviating to one
     vertex leaves three components (player+target, and two singletons) *)
  let b = Budget.of_list [ 1; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1 |]; [||]; [||]; [||] |] in
  let c = ctx Cost.Max p 0 in
  (* kappa = 3: {0,1}, {2}, {3}; cost = 16 + 2*16 *)
  check_int "kappa term" (16 + 2 * 16) (Deviation_eval.cost c [| 1 |]);
  let game = Game.make Cost.Max b in
  check_int "agrees with game" (Game.deviation_cost game p ~player:0 ~targets:[| 1 |])
    (Deviation_eval.cost c [| 1 |])

let test_partial_targets () =
  (* the greedy heuristic evaluates fewer targets than the budget *)
  let b = Budget.of_list [ 2; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [||]; [||] |] in
  let c = ctx Cost.Sum p 0 in
  (* one arc only: reach 1 at distance 1, vertex 2 unreachable (9) *)
  check_int "partial" (1 + 9) (Deviation_eval.cost c [| 1 |]);
  check_int "empty" (9 + 9) (Deviation_eval.cost c [||])

let test_reuse_across_calls () =
  (* scratch reuse must not leak state between evaluations *)
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:8 in
  let c = ctx Cost.Sum p 4 in
  let first = Deviation_eval.cost c [| 0 |] in
  let _ = Deviation_eval.cost c [| 5 |] in
  let _ = Deviation_eval.cost c [| 7 |] in
  check_int "same answer after reuse" first (Deviation_eval.cost c [| 0 |])

let test_validation () =
  let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:4 in
  let c = ctx Cost.Sum p 1 in
  Alcotest.check_raises "self"
    (Invalid_argument "Deviation_eval.cost: self target") (fun () ->
      ignore (Deviation_eval.cost c [| 1 |]));
  Alcotest.check_raises "range"
    (Invalid_argument "Deviation_eval.cost: target out of range") (fun () ->
      ignore (Deviation_eval.cost c [| 9 |]))

(* --- the distance-row engine --- *)

let rows_of ?budget ?row_cache_cap version p player =
  Deviation_eval.make ?budget ?row_cache_cap ~engine:Deviation_eval.Rows
    version p ~player
let bfs_of version p player =
  Deviation_eval.make ~engine:Deviation_eval.Bfs_overlay version p ~player

let test_rejected_call_is_not_an_eval () =
  (* a self-target, duplicate or out-of-range candidate is rejected
     before it counts as an evaluation, on every engine *)
  let b = Budget.of_list [ 1; 1; 0; 0 ] in
  let p = Strategy.make b [| [| 1 |]; [| 2 |]; [||]; [||] |] in
  List.iter
    (fun (name, c) ->
      List.iter
        (fun targets ->
          let evals0 = Bbng_obs.Counter.find "deveval.incremental_evals" in
          (try ignore (Deviation_eval.cost c targets) with Invalid_argument _ -> ());
          check_int name evals0 (Bbng_obs.Counter.find "deveval.incremental_evals"))
        [ [| 0 |]; [| 2; 2 |]; [| 9 |] ])
    [
      ("overlay", bfs_of Cost.Sum p 0);
      ("rows", rows_of Cost.Sum p 0);
      ("batch", Deviation_eval.make_batched Cost.Sum p ~player:0);
    ]

let test_engine_names () =
  List.iter
    (fun e ->
      check_true "engine name round trip"
        (Deviation_eval.engine_of_name (Deviation_eval.engine_name e) = Some e))
    [ Deviation_eval.Bfs_overlay; Deviation_eval.Rows ];
  check_true "unknown rejected" (Deviation_eval.engine_of_name "auto" = None)

let test_engine_resolution () =
  (* the player's budget alone picks the engine: rows only once a scan
     can reuse rows across candidates, i.e. b >= 2; [~engine] overrides *)
  let b = Budget.of_list [ 2; 1; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 0 |]; [||]; [||] |] in
  let engine_of ?engine player =
    Deviation_eval.engine (Deviation_eval.make ?engine Cost.Sum p ~player)
  in
  check_true "b=2 is rows" (engine_of 0 = Deviation_eval.Rows);
  check_true "b=1 is bfs" (engine_of 1 = Deviation_eval.Bfs_overlay);
  check_true "b=0 is bfs" (engine_of 2 = Deviation_eval.Bfs_overlay);
  check_true "forced bfs at b=2"
    (engine_of ~engine:Deviation_eval.Bfs_overlay 0 = Deviation_eval.Bfs_overlay);
  check_true "forced rows at b=1"
    (engine_of ~engine:Deviation_eval.Rows 1 = Deviation_eval.Rows)

let test_rows_max_disconnected_hit_count () =
  (* a disconnected MAX evaluation reads kappa off the context's
     component labelling, not off its rows: that is not cache traffic,
     so row_hits must move exactly as under SUM (here: not at all, every
     row is a fresh build) *)
  let b = Budget.of_list [ 2; 0; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [||]; [||]; [||]; [||] |] in
  List.iter
    (fun version ->
      let c = rows_of version p 0 in
      let built0 = Bbng_obs.Counter.find "deveval.rows_built" in
      let hits0 = Bbng_obs.Counter.find "deveval.row_hits" in
      let game = Game.make version b in
      check_int "cost"
        (Game.deviation_cost game p ~player:0 ~targets:[| 3; 4 |])
        (Deviation_eval.cost c [| 3; 4 |]);
      let label what = Printf.sprintf "%s %s" (Cost.version_name version) what in
      check_int (label "rows built (base + 2 targets)") 3
        (Bbng_obs.Counter.find "deveval.rows_built" - built0);
      check_int (label "row hits") 0
        (Bbng_obs.Counter.find "deveval.row_hits" - hits0))
    Cost.all_versions

let test_duplicate_target_rejected () =
  (* a duplicate under-spends the budget while pricing as if legal:
     both engines must reject it, not silently deduplicate *)
  let b = Budget.of_list [ 2; 0; 0; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [||]; [||]; [||] |] in
  List.iter
    (fun c ->
      Alcotest.check_raises "duplicate"
        (Invalid_argument "Deviation_eval.cost: duplicate target") (fun () ->
          ignore (Deviation_eval.cost c [| 3; 3 |])))
    [ bfs_of Cost.Sum p 0; rows_of Cost.Sum p 0 ]

let test_rows_eviction_keeps_answers_exact () =
  (* a cap of 1 forces an eviction on nearly every evaluation; answers
     must stay identical to the overlay engine throughout, and the
     eviction counter must actually move *)
  let p = Bbng_constructions.Tripod.profile ~k:3 in
  let player = 0 in
  List.iter
    (fun version ->
      let r = rows_of ~row_cache_cap:1 version p player in
      let b = bfs_of version p player in
      let n = Strategy.n p in
      let evicted0 = Bbng_obs.Counter.find "deveval.rows_evicted" in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u < v && u <> player && v <> player then
            check_int
              (Printf.sprintf "%s {%d,%d}" (Cost.version_name version) u v)
              (Deviation_eval.cost b [| u; v |])
              (Deviation_eval.cost r [| u; v |])
        done
      done;
      check_true "evictions happened under cap 1"
        (Bbng_obs.Counter.find "deveval.rows_evicted" > evicted0))
    Cost.all_versions

let test_rows_budget_charges_work () =
  (* row builds and combines spend work: a work_limit:0 token lets the
     first evaluation finish (checkpoint precedes any spend) and stops
     the second at its checkpoint *)
  let module Budgeted = Bbng_obs.Budgeted in
  let b = Budget.of_list [ 2; 1; 1; 0 ] in
  let p = Strategy.make b [| [| 1; 2 |]; [| 2 |]; [| 3 |]; [||] |] in
  let budget = Budgeted.create ~work_limit:0 () in
  let c = rows_of ~budget Cost.Sum p 0 in
  ignore (Deviation_eval.cost c [| 1; 3 |]);
  Alcotest.check_raises "second eval trips" Budgeted.Expired (fun () ->
      ignore (Deviation_eval.cost c [| 1; 3 |]))

let prop_rows_equals_bfs =
  (* the tentpole exactness oracle: on random (frequently disconnected)
     profiles, the distance-row engine prices every candidate exactly
     like the overlay BFS, for MAX and SUM, full and partial target
     sets, with rows reused across evaluations of one context *)
  qcheck ~count:200 "rows engine == overlay BFS engine"
    (random_budget_gen ~n_min:2 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 23) in
      let player = Random.State.int st n in
      let candidates =
        List.init 4 (fun _ ->
            let alt = Strategy.random st (Strategy.budgets p) in
            let targets = Strategy.strategy alt player in
            let keep = Random.State.int st (Array.length targets + 1) in
            Array.sub targets 0 keep)
      in
      List.for_all
        (fun version ->
          let r = rows_of version p player in
          let b = bfs_of version p player in
          List.for_all
            (fun targets ->
              Deviation_eval.cost r targets = Deviation_eval.cost b targets)
            candidates)
        Cost.all_versions)

(* The candidate order an exhaustive scan uses: C(n-1, b) subsets of
   the non-player vertices, lexicographic, so the first b-1 targets stay
   fixed over long runs and the rows engine reuses its prefix row. *)
let iter_candidates ~n ~player ~b f =
  Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
      f (Array.map (fun i -> if i < player then i else i + 1) c))

let prop_rows_prefix_scan_equals_bfs =
  (* full b = 2 and b = 3 scans price every candidate exactly like the
     overlay BFS, with the default cache and with a one-row cache that
     evicts on nearly every lookup; reversed and truncated candidates
     interleaved at random invalidate the cached prefix mid-scan *)
  qcheck ~count:150 "rows prefix scan == overlay BFS"
    (random_budget_gen ~n_min:3 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 31) in
      let player = Random.State.int st n in
      List.for_all
        (fun version ->
          List.for_all
            (fun b ->
              let bfs = bfs_of version p player in
              let rows = rows_of version p player in
              let rows1 = rows_of ~row_cache_cap:1 version p player in
              let agree targets =
                let expected = Deviation_eval.cost bfs targets in
                Deviation_eval.cost rows targets = expected
                && Deviation_eval.cost rows1 targets = expected
              in
              let ok = ref true in
              if b <= n - 1 then
                iter_candidates ~n ~player ~b (fun targets ->
                    (match Random.State.int st 4 with
                    | 0 ->
                        let rev = Array.of_list (List.rev (Array.to_list targets)) in
                        ok := !ok && agree rev
                    | 1 ->
                        let keep = Random.State.int st b in
                        ok := !ok && agree (Array.sub targets 0 keep)
                    | _ -> ());
                    ok := !ok && agree targets);
              !ok)
            [ 2; 3 ])
        Cost.all_versions)

let test_rows_scan_counters_and_work () =
  (* one full lexicographic b = 2 scan on a fresh context builds the
     base row and each non-player row once and hits the cache on every
     other row read (two per candidate); a second scan builds nothing
     and charges exactly 3n work units per candidate — the counter
     definitions behind row_hit_ratio and the points where a budget can
     stop a scan *)
  let module Budgeted = Bbng_obs.Budgeted in
  let p = Bbng_constructions.Tripod.profile ~k:2 in
  let n = Strategy.n p and player = 0 in
  check_int "player budget" 2 (Array.length (Strategy.strategy p player));
  let budget = Budgeted.create ~work_limit:max_int () in
  let c = Deviation_eval.make ~budget Cost.Sum p ~player in
  check_true "default engine at b = 2 is rows"
    (Deviation_eval.engine c = Deviation_eval.Rows);
  let scan () = iter_candidates ~n ~player ~b:2 (fun t -> ignore (Deviation_eval.cost c t)) in
  let pairs = (n - 1) * (n - 2) / 2 in
  let built0 = Bbng_obs.Counter.find "deveval.rows_built" in
  let hits0 = Bbng_obs.Counter.find "deveval.row_hits" in
  let evicted0 = Bbng_obs.Counter.find "deveval.rows_evicted" in
  scan ();
  check_int "rows built: base + one per non-player vertex" (1 + (n - 1))
    (Bbng_obs.Counter.find "deveval.rows_built" - built0);
  check_int "row hits: every other row read" ((2 * pairs) - (n - 1))
    (Bbng_obs.Counter.find "deveval.row_hits" - hits0);
  check_int "no eviction" 0 (Bbng_obs.Counter.find "deveval.rows_evicted" - evicted0);
  let work0 = Budgeted.work_done budget in
  scan ();
  check_int "second scan: (b+1)·n work per candidate" (pairs * 3 * n)
    (Budgeted.work_done budget - work0)

(* [f ()] and how far it moved the rows engine's counters *)
let with_rows_moves f =
  let names =
    [ "deveval.row_hits"; "deveval.rows_built"; "deveval.rows_evicted";
      "deveval.incremental_evals" ]
  in
  let before = List.map Bbng_obs.Counter.find names in
  let r = f () in
  (r, List.map2 (fun name b -> (name, Bbng_obs.Counter.find name - b)) names before)

(* A full b-subset scan on a fresh rows context, one entry per
   candidate in scan order: [None] decided, [Some cost] priced — by
   [cost_within] candidate by candidate, or by [scan_tail] prefix by
   prefix.  A tail's tallies must each cover its decided candidates
   plus at most the one survivor priced next. *)
let within_scan ?row_cache_cap version p player ~b ~limit =
  let ctx = rows_of ?row_cache_cap version p player in
  with_rows_moves (fun () ->
      let acc = ref [] in
      iter_candidates ~n:(Strategy.n p) ~player ~b (fun targets ->
          let r = Deviation_eval.cost_within ctx targets ~limit in
          acc := (if r = max_int then None else Some r) :: !acc);
      List.rev !acc)

let tail_scan ?row_cache_cap version p player ~b ~limit =
  let ctx = rows_of ?row_cache_cap version p player in
  let n = Strategy.n p in
  with_rows_moves (fun () ->
      let acc = ref [] and survivor_next = ref false in
      let buf = Array.make b 0 in
      Bbng_graph.Combinatorics.iter_combinations ~n:(n - 2) ~k:(b - 1) (fun c ->
          Array.iteri (fun i x -> buf.(i) <- (if x < player then x else x + 1)) c;
          Deviation_eval.scan_tail ctx buf ~limit
            ~tally:(fun ~handed ~decided ->
              if !survivor_next || handed - decided > 1 || handed < decided then
                QCheck.Test.fail_reportf "tally ~handed:%d ~decided:%d" handed decided;
              survivor_next := handed > decided;
              acc := List.init decided (fun _ -> None) @ !acc)
            ~priced:(fun _ cost ->
              if not !survivor_next then QCheck.Test.fail_report "survivor not tallied";
              survivor_next := false;
              acc := Some cost :: !acc));
      List.rev !acc)

(* [cost_within]'s contract at every limit: an answer other than
   [max_int] is the exact cost, and [max_int] comes only above the
   limit.  At limit = cost the answer is the cost, so the SUM bound
   never exceeds the cost; under MAX, for any limit <= n², [max_int]
   comes exactly when the cost is above the limit.  One context prices
   a whole lexicographic scan at the scan's fixed limit (the current
   cost), with reversed and truncated [cost] calls interleaved to
   invalidate its prefix; a second probes every candidate at its own
   cost, one below it and a random limit.  [scan_tail] over the same
   scan, at the current cost and at a random limit, with the default
   cache and with a one-row cache that evicts on every miss, must
   decide exactly the candidates [cost_within] decides and price every
   survivor at [cost], moving the pricer's counters alike. *)
let prop_cost_within_bounds =
  qcheck ~count:150 "cost_within: SUM bound <= cost, MAX witness test iff above"
    (sparse_or_dense_budget_gen ~n_min:3 ~n_max:8) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 41) in
      let player = Random.State.int st n in
      let inf = n * n in
      List.for_all
        (fun version ->
          List.for_all
            (fun b ->
              let exact = bfs_of version p player in
              let scan_ctx = rows_of version p player in
              let probe_ctx = rows_of version p player in
              let current = Deviation_eval.current_cost exact in
              let holds ctx targets c limit =
                let r = Deviation_eval.cost_within ctx targets ~limit in
                let sound = r = c || (r = max_int && c > limit) in
                let tight = limit < c || r = c in
                let complete =
                  version = Cost.Sum || limit > inf || c <= limit || r = max_int
                in
                if sound && tight && complete then true
                else
                  QCheck.Test.fail_reportf
                    "%s b=%d {%s}: cost %d, limit %d, cost_within %d"
                    (Cost.version_name version) b
                    (String.concat "," (List.map string_of_int (Array.to_list targets)))
                    c limit r
              in
              let ok = ref true and costs = ref [] in
              if b <= n - 1 then
                iter_candidates ~n ~player ~b (fun targets ->
                    let c = Deviation_eval.cost exact targets in
                    costs := c :: !costs;
                    (match Random.State.int st 4 with
                    | 0 ->
                        let rev = Array.of_list (List.rev (Array.to_list targets)) in
                        ignore (Deviation_eval.cost scan_ctx rev)
                    | 1 ->
                        let keep = Random.State.int st b in
                        ignore (Deviation_eval.cost scan_ctx (Array.sub targets 0 keep))
                    | _ -> ());
                    ok :=
                      !ok
                      && holds scan_ctx targets c current
                      && holds probe_ctx targets c c
                      && holds probe_ctx targets c (c - 1)
                      && holds probe_ctx targets c (Random.State.int st (inf + 2)));
              let costs = List.rev !costs in
              let tails_agree row_cache_cap limit =
                let decisions, moves = within_scan ?row_cache_cap version p player ~b ~limit in
                let decisions', moves' = tail_scan ?row_cache_cap version p player ~b ~limit in
                (decisions = decisions' && moves = moves'
                && List.for_all2 (fun d c -> d = None || d = Some c) decisions' costs)
                || QCheck.Test.fail_reportf "%s b=%d limit %d cap %s: tail != cost_within"
                     (Cost.version_name version) b limit
                     (match row_cache_cap with Some c -> string_of_int c | None -> "default")
              in
              !ok
              && (b > n - 1
                 || List.for_all
                      (fun limit -> tails_agree None limit && tails_agree (Some 1) limit)
                      [ current; Random.State.int st (inf + 2) ]))
            [ 2; 3 ])
        Cost.all_versions)

let test_bound_decided_scan () =
  (* a full b = 2 scan of a Table-1 witness player at its current cost:
     the bounds decide candidates, each decided one is charged exactly 1
     (SUM) or 1 per witness tried (MAX) on a warm context and is not an
     evaluation, and the current strategy itself is never decided *)
  let module Budgeted = Bbng_obs.Budgeted in
  List.iter
    (fun (version, p, player) ->
      let name = Cost.version_name version in
      let n = Strategy.n p in
      let budget = Budgeted.create ~work_limit:max_int () in
      let c = Deviation_eval.make ~budget version p ~player in
      check_true (name ^ ": rows engine") (Deviation_eval.engine c = Deviation_eval.Rows);
      let current = Deviation_eval.current_cost c in
      let scan () =
        let decided = ref 0 and priced = ref 0 in
        iter_candidates ~n ~player ~b:2 (fun t ->
            if Deviation_eval.cost_within c t ~limit:current = max_int then incr decided
            else incr priced);
        (!decided, !priced)
      in
      let decided, priced = scan () in
      check_true (name ^ ": some candidates decided") (decided > 0);
      check_int (name ^ ": every candidate decided or priced")
        ((n - 1) * (n - 2) / 2) (decided + priced);
      check_int (name ^ ": the current strategy is priced") current
        (Deviation_eval.cost_within c (Strategy.strategy p player) ~limit:current);
      let evals0 = Bbng_obs.Counter.find "deveval.incremental_evals" in
      let work0 = Budgeted.work_done budget in
      let decided', priced' = scan () in
      check_int (name ^ ": same decisions warm") decided decided';
      check_int (name ^ ": warm evaluations are the priced ones") priced'
        (Bbng_obs.Counter.find "deveval.incremental_evals" - evals0);
      let work = Budgeted.work_done budget - work0 in
      let combines = priced' * 3 * n in
      if version = Cost.Sum then
        check_int (name ^ ": warm work: 1 per candidate, 3n per combine")
          (decided' + priced' + combines) work
      else
        check_true (name ^ ": warm work: >= 1 per candidate, 3n per combine")
          (work >= decided' + priced' + combines))
    [
      (Cost.Sum, Bbng_constructions.Binary_tree.profile ~depth:4, 0);
      (Cost.Max, Bbng_constructions.Tripod.profile ~k:4, 0);
    ]

(* [p] reshaped around [player] into the cases a context reading G∖i
   off U(G) with the player masked must get right, the player's own
   strategy kept: a brace at the player (its first target also targets
   it), a player no one targets (no static neighbour), and a player cut
   off with its static neighbours from the other half of the vertices,
   whose components of G∖i are then isolated. *)
let shaped p player =
  let n = Strategy.n p in
  let reshape f =
    let s = Array.init n (fun i -> if i = player then Strategy.strategy p i else f i) in
    Strategy.make (Budget.of_array (Array.map Array.length s)) s
  in
  let keep i pred = Array.of_list (List.filter pred (Array.to_list (Strategy.strategy p i))) in
  let own = Strategy.strategy p player in
  let brace i =
    let s = Strategy.strategy p i in
    if Array.length own = 0 || i <> own.(0) || Array.mem player s then s
    else if Array.length s = 0 then [| player |]
    else Array.mapi (fun k v -> if k = 0 then player else v) s
  in
  let side v = 2 * v < n in
  [
    ("brace", reshape brace);
    ("no static neighbour", reshape (fun i -> keep i (fun v -> v <> player)));
    ("isolated components", reshape (fun i -> keep i (fun v -> side v = side i)));
  ]

let prop_equivalent_to_generic =
  (* random profiles and their [shaped] variants: the production
     context, the forced overlay and the forced rows engine each price
     like the generic route *)
  qcheck ~count:200 "incremental evaluator == generic deviation cost"
    (random_budget_gen ~n_min:2 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let st = rng (seed + 17) in
      let player = Random.State.int st n in
      let alt = Strategy.random st (Strategy.budgets p) in
      let targets = Strategy.strategy alt player in
      List.for_all
        (fun (shape, p) ->
          List.for_all
            (fun version ->
              let game = Game.make version (Strategy.budgets p) in
              let expected = Game.deviation_cost game p ~player ~targets in
              List.for_all
                (fun (engine, c) ->
                  Deviation_eval.cost c targets = expected
                  || QCheck.Test.fail_reportf "%s %s %s player=%d" shape engine
                       (Cost.version_name version) player)
                [
                  ("default", ctx version p player);
                  ("overlay", bfs_of version p player);
                  ("rows", rows_of version p player);
                ])
            Cost.all_versions)
        (("random", p) :: shaped p player))

let prop_current_cost_equivalent =
  qcheck ~count:100 "current_cost == Game.player_cost"
    (random_budget_gen ~n_min:1 ~n_max:9) (fun ((n, _, seed) as input) ->
      let p = random_profile_of input in
      let player = seed mod n in
      List.for_all
        (fun version ->
          let game = Game.make version (Strategy.budgets p) in
          Game.player_cost game p player
          = Deviation_eval.current_cost (ctx version p player))
        Cost.all_versions)

(* --- the bit-parallel batch (b <= 1) --- *)

(* A random, frequently disconnected profile in which [player] — first,
   middle or last by the seed — has budget [b]. *)
let unit_player_profile (n, total, seed) ~b =
  let st = rng seed in
  let budgets = Budget.to_array (Budget.random_partition st ~n ~total) in
  let player = [| 0; n / 2; n - 1 |].(seed mod 3) in
  budgets.(player) <- b;
  (Strategy.random st (Budget.of_array budgets), player, st)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Every single-target candidate of [player] (b = 1; at b = 0 its lone
   empty candidate), priced in random order so blocks are built out of
   order, agrees across the production context, a context forced onto
   the batch, the per-candidate overlay and the forced rows engine, and
   the first [generic] of them with the generic route too (it rebuilds
   the whole graph per call). *)
let engines_agree ~generic ~st shape p player =
  let n = Strategy.n p and b = Array.length (Strategy.strategy p player) in
  let candidates =
    if b = 0 then [| [||] |]
    else
      Array.of_list
        (List.filter_map
           (fun v -> if v = player then None else Some [| v |])
           (List.init n Fun.id))
  in
  shuffle st candidates;
  List.for_all
    (fun version ->
      let game = Game.make version (Strategy.budgets p) in
      let current = Game.player_cost game p player in
      let fresh = Deviation_eval.make version p ~player in
      let default = Deviation_eval.make version p ~player in
      let batched = Deviation_eval.make_batched version p ~player in
      let overlay = bfs_of version p player in
      let rows = rows_of version p player in
      let agree i targets =
        let expected = Deviation_eval.cost overlay targets in
        let ok =
          Deviation_eval.cost default targets = expected
          && Deviation_eval.cost batched targets = expected
          && Deviation_eval.cost rows targets = expected
          && (i >= generic || Game.deviation_cost game p ~player ~targets = expected)
        in
        if not ok then
          QCheck.Test.fail_reportf "%s %s b=%d player=%d targets={%s}" shape
            (Cost.version_name version) b player
            (String.concat "," (List.map string_of_int (Array.to_list targets)));
        ok
      in
      (* the current cost before any block exists, and after *)
      Deviation_eval.current_cost fresh = current
      && Array.for_all Fun.id (Array.mapi agree candidates)
      && Deviation_eval.current_cost default = current)
    Cost.all_versions

(* [engines_agree] on random profiles and their [shaped] variants *)
let batch_agrees ~n_min ~n_max ~count ~generic name =
  qcheck ~count name (sparse_or_dense_budget_gen ~n_min ~n_max)
    (fun ((n, _, _) as input) ->
      List.for_all
        (fun b ->
          b > n - 1
          ||
          let p, player, st = unit_player_profile input ~b in
          List.for_all
            (fun (shape, p) -> engines_agree ~generic ~st shape p player)
            (("random", p) :: shaped p player))
        [ 0; 1 ])

let test_batch_selection () =
  (* a unit player's context batches from one word of candidates on
     (n - 1 >= 63), keeps the engine name "bfs" either way, prices its
     current strategy without a block, and builds one block per word;
     [~engine] forces the per-candidate overlay *)
  let blocks () = Bbng_obs.Counter.find "deveval.blocks_built" in
  let scan c n player =
    for v = 0 to n - 1 do
      if v <> player then ignore (Deviation_eval.cost c [| v |])
    done
  in
  List.iter
    (fun (k, expected) ->
      let p = Bbng_constructions.Tripod.profile ~k in
      let n = Strategy.n p and player = 5 in
      check_int "unit player" 1 (Array.length (Strategy.strategy p player));
      let label what = Printf.sprintf "n=%d %s" n what in
      let b0 = blocks () in
      let c = Deviation_eval.make Cost.Max p ~player in
      check_true (label "engine") (Deviation_eval.engine c = Deviation_eval.Bfs_overlay);
      ignore (Deviation_eval.current_cost c);
      check_int (label "current cost builds no block") b0 (blocks ());
      scan c n player;
      check_int (label "blocks per scan") expected (blocks () - b0);
      let b1 = blocks () in
      scan (bfs_of Cost.Max p player) n player;
      check_int (label "forced overlay builds none") b1 (blocks ()))
    [ (20, 0); (21, 1); (22, 2) ]

let test_overlay_and_batch_work () =
  (* the work charges [cost] documents for the overlay and the batch, on
     a profile whose counts are known by hand: player 0 of
     0→1→2→3 plus 4→0, so G∖0 is the path 1-2-3 (a component holding
     no static neighbour) and the vertex 4 (base 0) *)
  let module Budgeted = Bbng_obs.Budgeted in
  let b = Budget.of_list [ 1; 1; 1; 0; 1 ] in
  let p = Strategy.make b [| [| 1 |]; [| 2 |]; [| 3 |]; [||]; [| 0 |] |] in
  let n = Strategy.n p in
  let charged c f =
    let budget = Budgeted.create ~work_limit:max_int () in
    Deviation_eval.set_budget c budget;
    f c;
    Budgeted.work_done budget
  in
  let price targets c = ignore (Deviation_eval.cost c targets) in
  List.iter
    (fun version ->
      let label what = Printf.sprintf "%s %s" (Cost.version_name version) what in
      (* a forced overlay charges its reached vertices, the player included *)
      List.iter
        (fun (targets, reached, what) ->
          check_int (label what) reached (charged (bfs_of version p 0) (price targets)))
        [
          ([| 2 |], n, "overlay, connected");
          ([| 4 |], 2, "overlay, disconnected (reaches 0 and 4)");
          ([||], 2, "overlay, empty candidate");
        ];
      (* a batch context's lone current-cost query is an overlay BFS *)
      check_int (label "batch current cost before any block") n
        (charged (Deviation_eval.make_batched version p ~player:0) (fun c ->
             ignore (Deviation_eval.current_cost c))))
    Cost.all_versions;
  (* one block holds all four candidates.  SUM seeds all of them and
     runs until the frontier empties: 1 and 3 reach each other at level
     2, so levels 0..3.  MAX seeds the three candidates of the path (4
     leaves it unreached and needs no BFS): 2 is done at level 1, 1 and
     3 at level 2, so levels 0..2.  A block charges n per level plus n,
     and every lookup 1. *)
  List.iter
    (fun (version, levels) ->
      let label what = Printf.sprintf "%s %s" (Cost.version_name version) what in
      let c = Deviation_eval.make_batched version p ~player:0 in
      check_int (label "first lookup builds the block")
        ((n * (levels + 1)) + 1)
        (charged c (price [| 2 |]));
      check_int (label "three more lookups") 3
        (charged c (fun c -> List.iter (fun v -> price [| v |] c) [ 1; 3; 4 ]));
      check_int (label "current cost from a built block") 1
        (charged c (fun c -> ignore (Deviation_eval.current_cost c))))
    [ (Cost.Sum, 4); (Cost.Max, 3) ]

let prop_batch_tiny =
  batch_agrees ~n_min:2 ~n_max:12 ~count:300 ~generic:max_int
    "n 2-12: batch == overlay == generic"

let prop_batch_one_word =
  batch_agrees ~n_min:60 ~n_max:70 ~count:30 ~generic:4
    "n 60-70: batch == overlay == generic"

let prop_batch_two_words =
  batch_agrees ~n_min:124 ~n_max:130 ~count:12 ~generic:4
    "n 124-130: batch == overlay == generic"

let suite =
  [
    case "accessors" test_accessors;
    case "current cost matches game" test_current_cost_matches_game;
    case "cost matches deviation_cost" test_cost_matches_deviation_cost;
    case "kappa counting" test_kappa_counting;
    case "partial target sets" test_partial_targets;
    case "scratch reuse" test_reuse_across_calls;
    case "validation" test_validation;
    case "rejected call is not an evaluation" test_rejected_call_is_not_an_eval;
    case "engine names" test_engine_names;
    case "engine resolution" test_engine_resolution;
    case "rows MAX disconnection counts no row hits"
      test_rows_max_disconnected_hit_count;
    case "duplicate target rejected" test_duplicate_target_rejected;
    case "rows eviction stays exact" test_rows_eviction_keeps_answers_exact;
    case "rows budget charges work" test_rows_budget_charges_work;
    case "rows scan counters and work" test_rows_scan_counters_and_work;
    case "bound-decided scan: decisions, evaluations, work"
      test_bound_decided_scan;
    prop_cost_within_bounds;
    prop_rows_equals_bfs;
    prop_rows_prefix_scan_equals_bfs;
    prop_equivalent_to_generic;
    prop_current_cost_equivalent;
    case "batch selection and blocks" test_batch_selection;
    case "overlay and batch work charges" test_overlay_and_batch_work;
    prop_batch_tiny;
    prop_batch_one_word;
    prop_batch_two_words;
  ]
