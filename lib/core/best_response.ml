module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected
module Combinatorics = Bbng_graph.Combinatorics

type move = { targets : int array; cost : int }

let c_candidates = Bbng_obs.Counter.make "br.candidates"
let c_improving = Bbng_obs.Counter.make "br.improving_moves"
let c_pruned_floor = Bbng_obs.Counter.make "br.pruned_floor"
let c_pruned_lemma = Bbng_obs.Counter.make "br.pruned_lemma22"
let c_degraded = Bbng_obs.Counter.make "br.degraded_scans"
let c_bound_pruned = Bbng_obs.Counter.make "br.bound_pruned"

(* candidates decided per improvement/swap search — a pruned search
   records 0, so the distribution shows how often the floor and Lemma
   2.2 cuts fire, not just how much the surviving scans cost *)
let h_candidates = Bbng_obs.Histogram.make "br.candidates_per_search"

(* All evaluators share one incremental evaluation context: the static
   part of the graph is read off the profile's one U(G) and each
   candidate strategy is priced by the engine the player's budget
   selects — at b <= 1 one BFS of G∖i per candidate, seeded by its
   target and the static neighbours, or one bit-parallel BFS per block
   of 63 candidates.  At b >= 2 an exhaustive scan decides most
   candidates by a bound — under SUM from singleton costs read off
   those same blocks, under MAX by a witness test on cached distance
   rows — and prices the rest by a min-combine of cached rows (see
   Deviation_eval). *)
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
  let in_degree = Deviation_eval.in_degree eval_ctx in
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

(* Lemma 2.2 needs only the player's eccentricity in U(G) clipped at 2,
   read off the profile's shared U(G), and its brace membership, read
   off the strategies. *)
let satisfies_lemma_2_2 profile player =
  let u = Strategy.underlying profile and n = Strategy.n profile in
  let targets_player t = Array.exists (fun w -> w = player) (Strategy.strategy profile t) in
  if Undirected.degree u player = n - 1 then true (* c_MAX(u) = 1 *)
  else if Array.exists targets_player (Strategy.strategy profile player) then false
  else begin
    (* unbraced: c_MAX(u) <= 2 *)
    let near = Array.make n false in
    near.(player) <- true;
    Undirected.iter_neighbors
      (fun v ->
        near.(v) <- true;
        Undirected.iter_neighbors (fun w -> near.(w) <- true) u v)
      u player;
    Array.for_all Fun.id near
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

let record_search_size evals =
  if Bbng_obs.Span.enabled () then Bbng_obs.Histogram.record h_candidates evals

type search = Exact_best | First_improving | Best_swap | First_swap

type priced = { current : int; improving : move option }

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

(* Candidate spaces in scan order, each decided candidate reported to
   [tally] and each priced one handed to [priced] in one reused buffer
   (it escapes by copy only): the lexicographic [b]-subsets of the
   other players, or the single-arc swaps — owned arcs in index order,
   each replaced by every target neither owned nor the player, in
   increasing order.  At b >= 2 the subsets are the tails of the
   lexicographic (b-1)-prefixes, each decided in one
   [Deviation_eval.scan_tail] pass behind the bound at the current
   cost; every other candidate is counted and priced alone by [eval]. *)
let iter_exhaustive ctx ~tally ~priced =
  let n = Game.n ctx.game and b = ctx.budget in
  let buf = Array.make b 0 in
  if b >= 2 then
    Combinatorics.iter_combinations ~n:(n - 2) ~k:(b - 1) (fun prefix ->
        unshift_into buf ctx.player prefix;
        Deviation_eval.scan_tail ctx.eval_ctx buf ~limit:ctx.current_cost ~tally
          ~priced)
  else
    Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
        unshift_into buf ctx.player c;
        priced buf (eval ctx buf))

let iter_swaps ctx ~tally:_ ~priced =
  let owned = Strategy.strategy ctx.profile ctx.player in
  let buf = Array.make ctx.budget 0 in
  Array.iteri
    (fun drop _ ->
      for v = 0 to Game.n ctx.game - 1 do
        let owned_already = Array.exists (Int.equal v) owned in
        if v <> ctx.player && not owned_already then begin
          Array.blit owned 0 buf 0 ctx.budget;
          buf.(drop) <- v;
          Array.sort Int.compare buf;
          priced buf (eval ctx buf)
        end
      done)
    owned

(* The one candidate loop behind every search and audit.  It tracks
   the cheapest candidate seen (the first one on ties) as an int and
   one buffer that each new minimum is blitted into, so the scan
   builds a move only once, when it ends; and it stops at the first
   candidate cheaper than [stop_below].  That is the current cost for
   the first-improvement searches and the audits, so a scan that finds
   no improvement is complete and its [best] witnesses "nothing beats
   the current strategy" (at an equilibrium the current strategy is
   itself a candidate, hence [best.cost = current]).  It is one past
   the cost floor for the best-improvement searches: nothing prices
   below the floor, so a candidate at it is already the first minimum,
   and the improving move is [best] whenever that beats the current
   cost.  [~candidates] is the size of the space the tier set out to
   scan; it stays on the audit even when the scan degrades, so a
   verifier can compare it against its own re-count.

   An [Exhaustive] scan at b >= 2 decides its candidates tail by tail
   behind the bound at the current cost ([Deviation_eval.scan_tail]),
   so a candidate whose bound lies strictly above it is decided
   unpriced: it counts as scanned and in [br.bound_pruned] but can be
   neither [best] nor an improvement.  That changes no complete scan's
   outcome, because the current strategy is itself a candidate, so the
   first minimum costs at most the current cost.  A degraded scan's
   [best] is the cheapest candidate priced, [None] when every candidate
   was bound-decided.  Swap scans are never bounded: the current
   strategy is not a swap, so the cheapest swap may cost more than it.

   [br.candidates] counts every candidate handed to the pricer, the
   one an expired token stops included.  Decided candidates reach the
   counters in bulk, at least once per tail (every n - 2 candidates or
   fewer), so a live reader sees a scan's counters move by tails. *)
let scan ctx ~tier ~candidates ~stop_below iter_targets =
  let best = Array.make ctx.budget 0 in
  let best_cost = ref max_int in
  let scanned = ref 0 in
  let tally ~handed ~decided =
    Bbng_obs.Counter.add c_candidates handed;
    if decided > 0 then begin
      Bbng_obs.Counter.add c_bound_pruned decided;
      scanned := !scanned + decided
    end
  in
  let priced targets cost =
    incr scanned;
    if cost < !best_cost then begin
      best_cost := cost;
      Array.blit targets 0 best 0 ctx.budget
    end;
    if cost < ctx.current_cost then begin
      Bbng_obs.Counter.bump c_improving;
      if cost < stop_below then raise Exit
    end
  in
  let tier =
    try
      iter_targets ctx ~tally ~priced;
      tier
    with
    | Exit -> tier
    | Bbng_obs.Budgeted.Expired ->
        (* the raising candidate was never priced, so it is not scanned
           and cannot be [best]; an interrupted first-improvement scan
           has found no improvement, or it would have stopped *)
        Bbng_obs.Counter.bump c_degraded;
        Degraded_scan
  in
  record_search_size !scanned;
  let best =
    if !best_cost = max_int then None
    else Some { targets = best; cost = !best_cost }
  in
  {
    tier;
    engine = Deviation_eval.engine ctx.eval_ctx;
    scanned = !scanned;
    candidates;
    current = ctx.current_cost;
    best;
    improving =
      (match best with
      | Some m when m.cost < ctx.current_cost -> best
      | _ -> None);
  }

let pruned ctx counter tier =
  Bbng_obs.Counter.bump counter;
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

(* The one pruning ladder: the cost floor cuts every search, Lemma 2.2
   (a statement about exact best responses) only the exhaustive ones. *)
let audit ?budget search game profile player =
  let ctx = make_context ?scan_budget:budget game profile player in
  let n = Game.n game in
  let stop_below =
    match search with
    | First_improving | First_swap -> ctx.current_cost
    | Exact_best | Best_swap -> ctx.floor + 1
  in
  if ctx.current_cost <= ctx.floor then pruned ctx c_pruned_floor Cost_floor
  else
    match search with
    | Exact_best | First_improving ->
        if satisfies_lemma_2_2 profile player then
          pruned ctx c_pruned_lemma Lemma_2_2_tier
        else
          scan ctx ~tier:Exhaustive
            ~candidates:(Combinatorics.binomial (n - 1) ctx.budget)
            ~stop_below iter_exhaustive
    | Best_swap | First_swap ->
        scan ctx ~tier:Swap_exhaustive
          ~candidates:(Combinatorics.Exact (ctx.budget * (n - 1 - ctx.budget)))
          ~stop_below iter_swaps

(* The context already priced the player's current strategy exactly, so
   the search hands that cost back with its verdict: callers that need
   it (a refutation, a dynamics step's gain) must not re-realize the
   profile to get it again. *)
let improve ?budget search game profile player =
  match audit ?budget search game profile player with
  | { tier = Degraded_scan; _ } -> raise Bbng_obs.Budgeted.Expired
  | a -> { current = a.current; improving = a.improving }

let exact_improvement ?budget game profile player =
  (improve ?budget First_improving game profile player).improving

let best_improvement ?budget game profile player =
  (improve ?budget Exact_best game profile player).improving

let swap_best ?budget game profile player =
  (improve ?budget Best_swap game profile player).improving

let first_improving_swap ?budget game profile player =
  (improve ?budget First_swap game profile player).improving

let audit_exact ?budget game profile player =
  audit ?budget First_improving game profile player

let audit_swap ?budget game profile player =
  audit ?budget First_swap game profile player

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
        Array.sort Int.compare targets;
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
  Array.sort Int.compare targets;
  { targets; cost = eval ctx targets }
