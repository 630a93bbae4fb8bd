(** Best responses.

    Theorem 2.1 proves finding a best response NP-hard (equivalent to
    k-center in the MAX version and k-median in the SUM version), so
    this module offers the full ladder:

    - {!exact}: brute force over all [C(n-1, b)] strategies, with the
      Lemma 2.2 cost-floor short-circuit — the ground truth used by the
      equilibrium certifier and the hardness experiments;
    - {!swap_best} / {!first_improving_swap}: the polynomial single-arc
      deviations of Alon et al., used inside the paper's own proofs
      (Theorems 3.3, 4.x, 6.x) and as scalable dynamics moves;
    - {!greedy}: an incremental heuristic (build the target set one arc
      at a time), the workhorse for large dynamics workloads.

    Every search takes an optional {!Bbng_obs.Budgeted.t} cancellation
    token ([?budget], default unlimited).  Context construction and the
    cheap fallback tiers always complete regardless of the token; only
    the candidate scan honours it.  The plain finders let
    {!Bbng_obs.Budgeted.Expired} propagate (their callers own the
    degradation policy); the audited checks convert interruption into a
    typed {!Degraded_scan} audit instead.

    Every search prices candidates through one {!Deviation_eval}
    context, whose engine the player's budget selects.  Both engines
    are exact, so every result below is engine-independent; audits
    record which engine priced them so a certificate verifier can
    re-price through the other one.

    Cost: the exhaustive scans ({!exact}, {!exact_improvement},
    {!best_improvement}, {!audit_exact}) enumerate candidates
    lexicographically, so at b ≥ 2 consecutive candidates share their
    first b-1 targets and the rows engine prices each in one O(n) pass
    over a cached prefix row; a whole scan is
    O(n·(n+m) + C(n-1,b)·n + C(n-1,b-1)·(b-1)·n).  The exhaustive
    audits (not {!exact}) hand each prefix's candidates to one
    {!Deviation_eval.scan_tail} pass, which bounds each against the
    current cost and skips the O(n) pass for one the bound decides, so
    most candidates cost O(1).  At
    b = 1 with n - 1 ≥ 63 candidates, 63 consecutive ones share one
    bit-parallel BFS of depth L, so a whole scan is
    O(⌈(n-1)/63⌉·L·(n+m)); a scan that stops early pays for every block
    it entered. *)

type move = {
  targets : int array;  (** the (sorted) improving strategy *)
  cost : int;           (** the player's cost after switching *)
}

val satisfies_lemma_2_2 : Strategy.t -> int -> bool
(** Sufficient condition for "playing a best response" in {e both}
    versions (Lemma 2.2): [c_MAX(u) = 1], or [c_MAX(u) <= 2] and [u] is
    in no brace. *)

val exact :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move
(** The true best response of a player (ties broken toward the
    lexicographically smallest target set; the player's current strategy
    wins ties only if itself lexicographically smallest).  Exponential in
    the budget.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val exact_improvement :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move option
(** [Some m] with [m.cost < current cost] if the player can improve
    (the search stops at the first strict improvement found after
    checking the Lemma 2.2 shortcut and the cost floor); [None] iff the
    player is playing a best response.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val best_improvement :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move option
(** Like {!exact_improvement} but scans everything: the {e best}
    deviation, or [None] if already optimal.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val swap_best :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move option
(** Best strict improvement obtainable by replacing exactly one owned
    arc (keeping the other [b - 1]); [None] if no swap improves.
    O(b * n) cost evaluations.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

val first_improving_swap :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move option
(** First strict improvement by a single swap, scan order: owned arcs
    increasing, replacement targets increasing.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan. *)

type search =
  | Exact_best       (** {!best_improvement} *)
  | First_improving  (** {!exact_improvement} *)
  | Best_swap        (** {!swap_best} *)
  | First_swap       (** {!first_improving_swap} *)
(** The four improvement searches above, as data. *)

type priced = {
  current : int;  (** the player's cost under the profile *)
  improving : move option;  (** what the search returned *)
}

val improve :
  ?budget:Bbng_obs.Budgeted.t ->
  search -> Game.t -> Strategy.t -> int -> priced
(** [improve search] runs the named search and also returns the current
    cost its evaluation context priced, exactly and before any pruning
    tier, so callers never re-price the player through
    {!Game.player_cost}.  Each plain search above is
    [(improve s ...).improving].

    It is the audited scan below, projected: the first-improvement
    searches are {!audit_exact} / {!audit_swap} themselves, and the
    best-improvement ones stop early only at a candidate priced at the
    cost floor, which nothing beats — either way the move returned is
    the first cheapest candidate in scan order.
    @raise Bbng_obs.Budgeted.Expired if the token trips mid-scan (the
    interrupted scan is counted in [br.degraded_scans]). *)

(** {1 Audited checks}

    Every search above is a projection of one audited scan: one pruning
    ladder (the cost floor cuts every search, Lemma 2.2 only the
    exhaustive ones) in front of one candidate loop that tracks the
    cheapest candidate seen.  An audit is that scan with
    first-improvement stopping, returned whole — which tier decided,
    how many candidates were decided, and the cheapest candidate priced
    — so a certificate written to disk can later be re-verified without
    re-running the search (see [Equilibrium.verify_certificate]).  Every
    certifier in [Equilibrium], verdict or certificate, reads its
    answer off these audits. *)

type tier =
  | Cost_floor       (** current cost equals the Lemma 2.2 floor; no scan *)
  | Lemma_2_2_tier   (** Lemma 2.2's structural condition held; no scan *)
  | Exhaustive       (** all [C(n-1,b)] strategies were enumerated *)
  | Swap_exhaustive  (** all [b(n-1-b)] single-arc swaps were enumerated *)
  | Degraded_scan
      (** the scan was interrupted by an expired cancellation token:
          [scanned] candidates were decided, none improving — partial
          evidence, not a best-response proof *)

val tier_name : tier -> string
(** Stable on-disk names: ["cost-floor"], ["lemma-2.2"], ["exact"],
    ["swap"], ["degraded"]. *)

val tier_of_name : string -> tier option

type audit = {
  tier : tier;
  engine : Deviation_eval.engine;
      (** which pricing engine evaluated the candidates — recorded so a
          verifier can re-price through the other one *)
  scanned : int;
      (** candidate strategies decided: priced, or (exhaustive tier)
          bound-decided — proved dearer than the current strategy
          without a price, see {!Deviation_eval.scan_tail}.  Each is
          counted in [br.candidates], a bound-decided one also in
          [br.bound_pruned], and a bound-decided one is never [best].
          [br.candidates] also counts the candidate an expired token
          stopped.  At b ≥ 2 decided candidates reach these counters
          in bulk, at least once per prefix's tail (every n−2
          candidates or fewer), so a live reader such as a heartbeat
          sees them move tail by tail rather than per candidate. *)
  candidates : Bbng_graph.Combinatorics.count;
      (** size of the space the tier set out to scan ([Exact 0] for the
          no-scan tiers); [Saturated] when [C(n-1,b)] overflows, which
          is an explicit marker, never a clamped number *)
  current : int;          (** the player's cost under the profile *)
  best : move option;     (** cheapest candidate seen ([None] when pruned) *)
  improving : move option;
      (** a strictly improving candidate; [None] iff the player is
          playing a best response (under the tier's notion) *)
}

val audit_exact :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> audit
(** Audited exact check.  It is the scan {!exact_improvement} runs, so
    its [improving] is that search's result by construction; when no
    pruning fires
    and no improvement exists, the scan is complete — [scanned =
    C(n-1,b)] and [best.cost = current] (the current strategy is among
    the candidates).  A refutation stops at the first improvement
    found, like the plain certifier.

    The scan decides a candidate whose bound lies strictly above the
    current cost without pricing it ({!Deviation_eval.scan_tail}).
    No complete scan's fields change: such a candidate is neither the
    first minimum nor an improvement.

    Under an expired [?budget] the scan stops between candidate
    evaluations and the audit comes back with [tier = Degraded_scan],
    [scanned] = candidates decided, [improving = None], and [best] =
    cheapest candidate priced so far ([None] if none was) — never an
    exception.  The cheap tiers ([Cost_floor], [Lemma_2_2_tier]) still
    classify players regardless of the token, so a deadline degrades
    only the players that genuinely needed the exponential scan. *)

val audit_swap :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> audit
(** Audited swap-stability check: the scan {!first_improving_swap}
    runs (cost-floor pruning only; Lemma 2.2 is about exact best
    responses).  Degrades under an expired [?budget] exactly like
    {!audit_exact}. *)

val greedy :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> int -> move
(** Heuristic response: pick the [b] targets one at a time, each time
    adding the target that minimizes the player's cost with the partial
    set (a k-center/k-median-style greedy).  Not necessarily improving,
    never validated as optimal; intended as a dynamics move and as an
    initializer for local search. *)
