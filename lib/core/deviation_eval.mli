(** Fast repeated evaluation of one player's deviations.

    Exact best-response search evaluates thousands of candidate
    strategies of a single player against a {e fixed} rest-of-profile.
    The generic route ({!Game.deviation_cost}) rebuilds the undirected
    graph per candidate; this module reads the static part [G∖i] —
    every arc {e not} owned by the deviating player — off the profile's
    [U(G)] ({!Strategy.underlying}, built once per profile and shared
    by all its contexts) with the player masked, and prices candidates
    with one of two exact engines.  No walk ever expands the player, so
    its own arcs, which [U(G)] holds in its row and as edges into it,
    are never followed; a context keeps only staticN(i), the players
    whose strategy contains the player, and one BFS queue.

    Both rest on the one-arc shortest-path lemma: a shortest path from
    the player never revisits the player, so it uses {e at most one} of
    the player's arcs, necessarily as its first edge.  Hence

    {v dist_i(v) = min over t in (targets ∪ staticN(i)) of
                     1 + dist_{G∖i}(t, v) v}

    where [G∖i] is the player-deleted static graph — a quantity that
    does {e not} depend on the candidate at all.

    - [Bfs_overlay] prices a context of budget ≤ 1.  With fewer than
      one word ({!Bbng_graph.Bit_bfs.width} = 63) of candidates it
      builds one distance row of [G∖i] per candidate, a BFS seeded by
      the candidate's targets and staticN(i) together: O(n + m) per
      candidate.  From one word on, a single-target candidate is
      priced in a {e block} of 63: block [j] holds the candidates
      [63j .. 63j+62] in vertex order (skipping the player), is built
      the first time one of its targets is asked for, and is one
      bit-parallel BFS over [G∖i] from all its targets at once.
      Linking to [t] costs agg_v min(base(v), 1 + d_{G∖i}(t, v)), so
      SUM sums come from bit-sliced per-source counters and MAX
      eccentricities from per-source done masks; the context's
      component labelling (below) gives each candidate's reach and
      [kappa] in O(1), and a disconnected MAX candidate needs no BFS.
      A full scan costs O(⌈(n-1)/63⌉ · L · (n + m)) with L the BFS
      depth, against O((n-1) · (n + m)) per candidate.  The player's
      current strategy alone (all a pruned search asks for) keeps the
      overlay's one row.
    - [Rows] precomputes one BFS row per first-hop vertex of [G∖i]
      (lazily, cached under a configurable cap with eviction counters),
      plus a single multi-source row for the static neighbors.  It also
      caches a {e prefix row}: the min of the base row and the rows of
      the last candidate's first b-1 targets.  A candidate whose first
      b-1 targets match costs one O(n) pass over the prefix row and
      its last target's row; a new prefix is rebuilt in O((b-1)·n).
      Lexicographic enumeration changes the prefix at most
      C(n-1, b-1) times, so a C(n-1, b) exhaustive scan drops from
      O(C(n-1,b)·(n+m)) to
      O(n·(n+m) + C(n-1,b)·n + C(n-1,b-1)·(b-1)·n).  Behind
      {!cost_within} a candidate first meets an O(1) lower bound (SUM)
      or witness test (MAX) cached with the prefix, and only one the
      bound cannot put above the limit pays the O(n) combine;
      {!scan_tail} asks that bound for every candidate of a prefix in
      one pass.  The SUM bound reads each singleton's cost off the
      bit-parallel batch, so a b = 2 SUM scan builds rows only for its
      survivors (and the base row).

    Every engine reads the MAX version's [kappa] off one labelling of
    the components of [G∖i], built the first time a context needs it.
    A candidate reaches exactly the components of its targets and of
    staticN(i), so [kappa - 1] is the number of components holding no
    static neighbour that no target hits: O(b) per candidate, with no
    walk of the components the candidate misses.  The overlay, the row
    builds and the batch's base row all run one BFS of [G∖i], and the
    overlay and the rows engine share one [min(pre, last) + 1] row
    combine.

    The observable behaviour of every engine is {e identical} to the
    generic route (qcheck properties in the test suite pin
    batch ≡ rows ≡ overlay ≡ generic); the win is the per-candidate
    constant. *)

type t

type engine = Bfs_overlay | Rows
(** The two exact pricing engines (see the module preamble).  A context
    picks one from the player's budget alone: [Rows] when it is ≥ 2
    (rows amortize only when candidates share first hops), [Bfs_overlay]
    otherwise — per candidate, or batched once the context has a word
    of candidates.  Both [Bfs_overlay] paths record the name ["bfs"]. *)

val engine_name : engine -> string
(** ["bfs"] or ["rows"] — the stable names certificates record. *)

val engine_of_name : string -> engine option

val make :
  ?budget:Bbng_obs.Budgeted.t ->
  ?engine:engine ->
  ?row_cache_cap:int ->
  Cost.version ->
  Strategy.t ->
  player:int ->
  t
(** Captures the fixed part: O(n + deg(i)·b) once the profile's
    [U(G)] is built, which the first context of a profile does in
    O(n + m).  [?budget] (default unlimited) is the cancellation token
    every subsequent {!cost} call honours.
    [?engine] overrides the budget rule and forces the per-candidate
    form of the engine (certificate verification re-prices through a
    forced engine; tests and the bench ablation compare them);
    [?row_cache_cap] bounds how many distance rows the [Rows] engine
    keeps live (FIFO eviction, clamped to ≥ 1; the default keeps the
    cache under ~64 MB and never evicts at paper scales).  Cache
    traffic is observable as the [deveval.rows_built] /
    [deveval.row_hits] / [deveval.rows_evicted] counters, batch blocks
    as [deveval.blocks_built] (a [Rows] context's too: its SUM bound
    prices singletons with the batch, see {!cost_within}).

    A context is single-domain state: parallel certification gives each
    domain its own context, rows are never shared across domains. *)

val make_batched :
  ?budget:Bbng_obs.Budgeted.t -> Cost.version -> Strategy.t -> player:int -> t
(** {!make} for a player of budget ≤ 1, with single-target candidates
    priced by the bit-parallel batch whatever [n] is.  Production
    contexts never need it — {!make} picks the batch from the context's
    shape; the crossover sweep and the exactness tests use it below the
    threshold.
    @raise Invalid_argument on a budget above 1. *)

val player : t -> int

val in_degree : t -> int
(** |staticN(i)|: how many players' strategies contain the player. *)

val version : t -> Cost.version

val engine : t -> engine
(** The engine this context prices with. *)

val budget : t -> Bbng_obs.Budgeted.t

val set_budget : t -> Bbng_obs.Budgeted.t -> unit
(** Swap the cancellation token.  Used to warm a context up unlimited
    (so the cheap fallback tiers always have a current cost to compare
    against) and only then arm the caller's deadline for the expensive
    scan. *)

val cost : t -> int array -> int
(** [cost ctx targets] is the player's cost if it plays [targets]
    (sorted or not; duplicates, self-targets and out-of-range vertices
    are rejected).  Budget length is {e not} enforced here — the
    evaluator is also used on partial target sets by the greedy
    heuristic.

    Honours the context's cancellation token: checkpoints it on entry
    (raising {!Bbng_obs.Budgeted.Expired} once the token has tripped)
    and charges the work done after — the reached-vertex count per
    overlay BFS, the popped count per row build, [(b+1)·n] cells per
    combine, [n] per level of a block's BFS plus [n] to set it up, 1
    per batched lookup —
    so interruption lands {e between} candidate evaluations,
    never mid-BFS, and the row cache is never left with a torn row
    (rows are installed only after their BFS completes; the
    [deveval.row_build] fault probe sits before the build for the
    crash-safety matrix).
    @raise Invalid_argument on a self-target, a duplicate target or an
    out-of-range vertex; a rejected call is not counted as an
    evaluation.
    @raise Bbng_obs.Budgeted.Expired once the token has expired. *)

val cost_within : t -> int array -> limit:int -> int
(** [cost_within ctx targets ~limit] is [cost ctx targets], except that
    a candidate which a bound proves to cost strictly more than [limit]
    may come back as [max_int] instead, without its O(n) combine.  A
    result other than [max_int] is always the exact cost.  Only the
    [Rows] engine bounds (at b ≥ 2); every other context answers
    {!cost}.  An exhaustive scan asks it of whole tails through
    {!scan_tail}, with the current cost as [limit]: a candidate dearer
    than it can be neither the first minimum nor an improvement.

    - SUM: f(P ∪ \{t\}) ≥ f(P) + f(\{t\}) − f(∅), with P the candidate's
      first b−1 targets and t its last.  The gain f(∅) − f(S) is a
      facility-location objective, hence submodular.  f(\{t\}) is read
      once per target off the context's bit-parallel batch (the
      [Bfs_overlay] engine's blocks of 63 single-target candidates,
      each built the first time one of its targets is asked for), so
      the bound needs no row of t.  f(P) is priced once per prefix: off
      the batch at b = 2, so a b = 2 scan builds only the base row and
      its survivors' rows; by one combine of the prefix row at b ≥ 3.
    - MAX: the cost is above [limit] exactly when some witness v, with
      pre(v) + 1 > [limit] for the prefix row pre, has last(v) + 1 >
      [limit] in the last target's row.  Exact for every [limit ≤ n²]:
      such a candidate is always decided.  The witnesses are drawn once
      per prefix and [limit]; the test stops at the first that decides.

    Checkpoints the token on entry as {!cost} does.  Work charged: the
    row builds as in {!cost}; for the batch, [n] per level of a
    block's BFS plus [n] to set it up, and 1 per singleton read;
    [2·n] for f(∅) and per prefix combine (b ≥ 3); [n] per witness set
    drawn; 1 for the SUM bound, or 1 per witness tried; and [(b+1)·n]
    for a candidate that still needs its combine.
    [deveval.incremental_evals] counts every price — a candidate's,
    f(∅)'s, each singleton's (once per target) and each prefix's — so
    a bound-decided candidate is not an evaluation.
    [deveval.row_hits] counts cached rows read: a prefix row's gather
    counts those of its k rows it finds cached, a survivor counts all
    k when the prefix row is already gathered, and a candidate counts
    its last target's row when it reads it — a survivor for its
    combine, a MAX candidate for its witness test.  A SUM candidate
    the bound decides reads no row.
    @raise Invalid_argument as {!cost} does.
    @raise Bbng_obs.Budgeted.Expired once the token has expired. *)

val scan_tail :
  t ->
  int array ->
  limit:int ->
  tally:(handed:int -> decided:int -> unit) ->
  priced:(int array -> int -> unit) ->
  unit
(** [scan_tail ctx targets ~limit ~tally ~priced] is {!cost_within} at
    [limit] over a whole {e tail}.  [targets] has length b ≥ 2 and its
    first b−1 entries are a strictly increasing prefix P; the tail is
    every candidate P ++ [v] with v past P's last target (the player
    skipped), in increasing order, each written into [targets.(b-1)].
    The lexicographic b-subsets are the tails of the lexicographic
    (b−1)-prefixes.  The bound is settled once per tail, so each later
    candidate costs one compare against its batch-priced singleton
    (SUM) or a cached-row read and one witness walk (MAX).

    A survivor — a candidate the bound does not decide — is priced and
    handed to [priced targets cost] ([targets] is valid during the call
    only; [priced] may raise to stop the scan, but must not price on
    [ctx]).  Decided candidates come back in bulk as [tally ~handed
    ~decided]: [decided] were decided unpriced, and [handed] also
    counts the survivor about to be priced, or the candidate an
    exception stopped.  [tally] runs before each survivor, at the
    tail's end and before any exception is re-raised.  Checkpoints,
    work charges and [deveval.*] moves add up to those of
    {!cost_within} called on each candidate in turn, but the counters
    move at least once per tail (every n−2 candidates or fewer) rather
    than per candidate.
    @raise Invalid_argument unless [ctx] prices with [Rows] and the
    prefix is non-empty, in range, player-free and strictly increasing.
    @raise Bbng_obs.Budgeted.Expired once the token has expired. *)

val current_cost : t -> int
(** Cost of the player's actual strategy in the captured profile. *)
