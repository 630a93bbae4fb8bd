module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected
module Combinatorics = Bbng_graph.Combinatorics

type move = { targets : int array; cost : int }

let c_candidates = Bbng_obs.Counter.make "br.candidates"
let c_improving = Bbng_obs.Counter.make "br.improving_moves"
let c_pruned_floor = Bbng_obs.Counter.make "br.pruned_floor"
let c_pruned_lemma = Bbng_obs.Counter.make "br.pruned_lemma22"
let c_degraded = Bbng_obs.Counter.make "br.degraded_scans"

(* candidates evaluated per improvement/swap search — a pruned search
   records 0, so the distribution shows how often the floor and Lemma
   2.2 cuts fire, not just how much the surviving scans cost *)
let h_candidates = Bbng_obs.Histogram.make "br.candidates_per_search"

(* All evaluators share one incremental evaluation context: the static
   part of the graph is materialized once and each candidate strategy
   is priced by the engine the player's budget selects — an overlay BFS
   per candidate or per block of 63 candidates at b <= 1, a min-combine
   of cached distance rows at b >= 2 (see Deviation_eval). *)
type context = {
  game : Game.t;
  profile : Strategy.t;
  player : int;
  eval_ctx : Deviation_eval.t;
  budget : int;
  in_degree : int;
  floor : int;              (* Lemma 2.2 cost floor *)
  current_cost : int;
}

(* Context warm-up runs unlimited even when the caller hands us an
   already-expired token: the current cost and the floor are what the
   cheap fallback tiers (cost-floor, Lemma 2.2) compare against, and
   those must stay available under any deadline.  The caller's token is
   armed only after warm-up, so only the candidate scan can trip.

   Contexts are per-search state, so parallel certification naturally
   gets one context — and one private row cache — per domain. *)
let make_context ?(scan_budget = Bbng_obs.Budgeted.unlimited) game profile
    player =
  let n = Game.n game in
  let budget = Budget.get (Game.budgets game) player in
  let eval_ctx = Deviation_eval.make (Game.version game) profile ~player in
  let in_degree =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if i <> player && Array.exists (fun v -> v = player) (Strategy.strategy profile i)
      then incr count
    done;
    !count
  in
  let floor =
    Cost.cost_floor (Game.version game) ~n ~budget ~in_degree
  in
  let current_cost = Deviation_eval.current_cost eval_ctx in
  Deviation_eval.set_budget eval_ctx scan_budget;
  { game; profile; player; eval_ctx; budget; in_degree; floor; current_cost }

let eval ctx targets =
  Bbng_obs.Counter.bump c_candidates;
  Deviation_eval.cost ctx.eval_ctx targets

(* Subsets of {0..n-1} \ {player} are enumerated as subsets of
   {0..n-2} and shifted past the player. *)
let unshift player c =
  Array.map (fun i -> if i < player then i else i + 1) c

(* In-place variant for the scan hot loops: pricing C(n-1, b)
   candidates makes a per-candidate allocation measurable against the
   rows engine's O(n) combine, so the shifted candidate lives in one
   reusable buffer ([Deviation_eval.cost] only reads it) and escapes by
   copy only when a candidate is actually kept. *)
let unshift_into buf player c =
  for i = 0 to Array.length c - 1 do
    let x = c.(i) in
    buf.(i) <- (if x < player then x else x + 1)
  done

(* Lemma 2.2 needs only the player's eccentricity clipped at 2 and its
   brace membership, both readable straight off the profile in
   O(n + m) — realizing the digraph and its undirected projection here
   would put two graph constructions on the certifier's per-player hot
   path.  [mark]: 1 = adjacent to the player, 2 = within distance 2. *)
let satisfies_lemma_2_2 profile player =
  let n = Strategy.n profile in
  let own = Strategy.strategy profile player in
  let targets_player i =
    Array.exists (fun w -> w = player) (Strategy.strategy profile i)
  in
  let mark = Array.make n 0 in
  mark.(player) <- 2;
  Array.iter (fun v -> mark.(v) <- 1) own;
  for i = 0 to n - 1 do
    if i <> player && targets_player i then mark.(i) <- 1
  done;
  let neighbors = ref 0 in
  for v = 0 to n - 1 do
    if mark.(v) = 1 then incr neighbors
  done;
  if !neighbors = n - 1 then true (* c_MAX(u) = 1 *)
  else if Array.exists targets_player own then false (* braced, c_MAX > 1 *)
  else begin
    (* distance-2 reach: an undirected edge into the level-1 set comes
       from an arc in either direction; level-1 marks never change in
       this pass, so one sweep settles every vertex *)
    for i = 0 to n - 1 do
      if mark.(i) = 1 then
        Array.iter
          (fun w -> if mark.(w) = 0 then mark.(w) <- 2)
          (Strategy.strategy profile i)
      else if
        mark.(i) = 0
        && Array.exists (fun w -> mark.(w) = 1) (Strategy.strategy profile i)
      then mark.(i) <- 2
    done;
    not (Array.exists (fun m -> m = 0) mark)
  end

let exact ?budget game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  let n = Game.n game in
  let buf = Array.make ctx.budget 0 in
  match
    Combinatorics.fold_best ~n:(n - 1) ~k:ctx.budget
      ~score:(fun c ->
        unshift_into buf player c;
        eval ctx buf)
      ~stop_at:ctx.floor ()
  with
  | Some (c, cost) -> { targets = unshift player c; cost }
  | None -> assert false (* k = 0 always yields the empty subset *)

exception Found of move

let record_search_size evals =
  if Bbng_obs.Span.enabled () then Bbng_obs.Histogram.record h_candidates evals

let scan_for_improvement ctx ~stop_at_first =
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    record_search_size 0;
    None
  end
  else if satisfies_lemma_2_2 ctx.profile ctx.player then begin
    Bbng_obs.Counter.bump c_pruned_lemma;
    record_search_size 0;
    None
  end
  else begin
    let n = Game.n ctx.game in
    let best = ref None in
    let evals = ref 0 in
    let buf = Array.make ctx.budget 0 in
    let result =
      try
        Combinatorics.iter_combinations ~n:(n - 1) ~k:ctx.budget (fun c ->
            unshift_into buf ctx.player c;
            incr evals;
            let cost = eval ctx buf in
            if cost < ctx.current_cost then begin
              Bbng_obs.Counter.bump c_improving;
              let better_than_best =
                match !best with None -> true | Some m -> cost < m.cost
              in
              if better_than_best then begin
                let m = { targets = Array.copy buf; cost } in
                if stop_at_first || cost <= ctx.floor then raise (Found m);
                best := Some m
              end
            end);
        !best
      with Found m -> Some m
    in
    record_search_size !evals;
    result
  end

let swap_candidates ctx =
  (* (kept-set, replacement) pairs: drop each owned arc in turn, try
     every replacement target not already owned and not the player. *)
  let owned = Strategy.strategy ctx.profile ctx.player in
  let n = Game.n ctx.game in
  let is_owned v = Array.exists (fun w -> w = v) owned in
  let moves = ref [] in
  Array.iteri
    (fun drop_idx _ ->
      for v = 0 to n - 1 do
        if v <> ctx.player && not (is_owned v) then begin
          let targets =
            Array.mapi (fun i w -> if i = drop_idx then v else w) owned
          in
          Array.sort compare targets;
          moves := targets :: !moves
        end
      done)
    owned;
  List.rev !moves

let swap_scan ctx ~stop_at_first =
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    record_search_size 0;
    None
  end
  else begin
    let best = ref None in
    let evals = ref 0 in
    let result =
      try
        List.iter
          (fun targets ->
            incr evals;
            let cost = eval ctx targets in
            if cost < ctx.current_cost then begin
              Bbng_obs.Counter.bump c_improving;
              let better = match !best with None -> true | Some m -> cost < m.cost in
              if better then begin
                let m = { targets; cost } in
                if stop_at_first then raise (Found m);
                best := Some m
              end
            end)
          (swap_candidates ctx);
        !best
      with Found m -> Some m
    in
    record_search_size !evals;
    result
  end

type search = Exact_best | First_improving | Best_swap | First_swap

type priced = { current : int; improving : move option }

(* The context already priced the player's current strategy exactly, so
   the search hands that cost back with its verdict: callers that need
   it (a refutation, a dynamics step's gain) must not re-realize the
   profile to get it again. *)
let improve ?budget search game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  let improving =
    match search with
    | Exact_best -> scan_for_improvement ctx ~stop_at_first:false
    | First_improving -> scan_for_improvement ctx ~stop_at_first:true
    | Best_swap -> swap_scan ctx ~stop_at_first:false
    | First_swap -> swap_scan ctx ~stop_at_first:true
  in
  { current = ctx.current_cost; improving }

let exact_improvement ?budget game profile player =
  (improve ?budget First_improving game profile player).improving

let best_improvement ?budget game profile player =
  (improve ?budget Exact_best game profile player).improving

let swap_best ?budget game profile player =
  (improve ?budget Best_swap game profile player).improving

let first_improving_swap ?budget game profile player =
  (improve ?budget First_swap game profile player).improving

(* --- audited checks: the same ladder, with evidence --- *)

type tier =
  | Cost_floor
  | Lemma_2_2_tier
  | Exhaustive
  | Swap_exhaustive
  | Degraded_scan

let tier_name = function
  | Cost_floor -> "cost-floor"
  | Lemma_2_2_tier -> "lemma-2.2"
  | Exhaustive -> "exact"
  | Swap_exhaustive -> "swap"
  | Degraded_scan -> "degraded"

let tier_of_name = function
  | "cost-floor" -> Some Cost_floor
  | "lemma-2.2" -> Some Lemma_2_2_tier
  | "exact" -> Some Exhaustive
  | "swap" -> Some Swap_exhaustive
  | "degraded" -> Some Degraded_scan
  | _ -> None

type audit = {
  tier : tier;
  engine : Deviation_eval.engine;
  scanned : int;
  candidates : Combinatorics.count;
  current : int;
  best : move option;
  improving : move option;
}

(* Shared audited scan: walk candidates tracking the global cheapest
   one (not just improving ones), stopping at the first strict
   improvement — so a no-improvement audit is a complete scan whose
   [best] witnesses "nothing beats the current strategy" (the current
   strategy itself is among the exact-tier candidates, hence
   [best.cost = current] at an equilibrium), while a refutation audit
   stops as early as the plain certifier would.  [~candidates] is the
   size of the space the tier set out to scan — it stays on the audit
   even when the scan degrades, so a verifier can compare it against
   its own re-count.  [iter_targets] may hand every candidate in one
   reused buffer: a candidate is copied only when it is kept. *)
let audit_candidates ctx ~tier ~candidates iter_targets =
  let best = ref None in
  let improving = ref None in
  let scanned = ref 0 in
  let interrupted = ref false in
  (try
     iter_targets (fun targets ->
         incr scanned;
         let cost = eval ctx targets in
         (match !best with
         | Some (m : move) when m.cost <= cost -> ()
         | _ -> best := Some { targets = Array.copy targets; cost });
         if cost < ctx.current_cost then begin
           Bbng_obs.Counter.bump c_improving;
           improving := Some { targets = Array.copy targets; cost };
           raise Exit
         end)
   with
  | Exit -> ()
  | Bbng_obs.Budgeted.Expired ->
      (* the raising candidate was never evaluated: don't count it, and
         don't trust [best] beyond what was actually priced *)
      decr scanned;
      interrupted := true;
      Bbng_obs.Counter.bump c_degraded);
  record_search_size !scanned;
  {
    tier = (if !interrupted then Degraded_scan else tier);
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = !scanned;
    candidates;
    current = ctx.current_cost;
    best = !best;
    (* a found improvement always escapes via Exit before any further
       eval, so an interrupted scan has [improving = None] by
       construction *)
    improving = !improving;
  }

let pruned_audit ctx tier =
  record_search_size 0;
  {
    tier;
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = 0;
    candidates = Combinatorics.Exact 0;
    current = ctx.current_cost;
    best = None;
    improving = None;
  }

let audit_exact ?budget game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    pruned_audit ctx Cost_floor
  end
  else if satisfies_lemma_2_2 ctx.profile ctx.player then begin
    Bbng_obs.Counter.bump c_pruned_lemma;
    pruned_audit ctx Lemma_2_2_tier
  end
  else
    let n = Game.n ctx.game in
    let buf = Array.make ctx.budget 0 in
    audit_candidates ctx ~tier:Exhaustive
      ~candidates:(Combinatorics.binomial (n - 1) ctx.budget)
      (fun f ->
        Combinatorics.iter_combinations ~n:(n - 1) ~k:ctx.budget (fun c ->
            unshift_into buf ctx.player c;
            f buf))

let audit_swap ?budget game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  if ctx.current_cost <= ctx.floor then begin
    Bbng_obs.Counter.bump c_pruned_floor;
    pruned_audit ctx Cost_floor
  end
  else
    let n = Game.n ctx.game in
    audit_candidates ctx ~tier:Swap_exhaustive
      ~candidates:(Combinatorics.Exact (ctx.budget * (n - 1 - ctx.budget)))
      (fun f -> List.iter f (swap_candidates ctx))

let greedy ?budget game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  let n = Game.n game in
  let chosen = ref [] in
  let is_chosen v = List.mem v !chosen in
  for _step = 1 to ctx.budget do
    let best_v = ref (-1) and best_cost = ref max_int in
    for v = 0 to n - 1 do
      if v <> player && not (is_chosen v) then begin
        (* Partial target sets are legal digraph-wise even though they
           violate the budget; cost is still well defined. *)
        let targets = Array.of_list (v :: !chosen) in
        Array.sort compare targets;
        let cost = eval ctx targets in
        if cost < !best_cost then begin
          best_cost := cost;
          best_v := v
        end
      end
    done;
    chosen := !best_v :: !chosen
  done;
  let targets = Array.of_list !chosen in
  Array.sort compare targets;
  { targets; cost = eval ctx targets }
