(** Nash equilibrium certification.

    A profile is a (pure) Nash equilibrium iff every player is playing a
    best response.  Certification is exact (exponential in budgets,
    with the Lemma 2.2 and cost-floor short-circuits) and returns a
    {e witness} on failure so tests and experiments can show the
    profitable deviation instead of a bare [false].

    Swap stability (no single-arc replacement helps any player) is the
    weaker, polynomial notion of Alon et al.; every Nash equilibrium is
    swap stable, and several of the paper's arguments only use swap
    deviations. *)

type refutation = {
  player : int;
  better : Best_response.move;  (** a strictly improving deviation *)
  current_cost : int;
      (** the player's cost under the profile, as the search that found
          [better] priced it ({!Best_response.improve}) *)
}

type verdict =
  | Equilibrium
  | Refuted of refutation
  | Degraded of int list
      (** certificate-only outcome: no improving deviation was found,
          but the listed players' scans were interrupted by an expired
          {!Bbng_obs.Budgeted.t} token, so "equilibrium" is not proven.
          The plain certifiers ({!certify} and friends) never return
          this — it arises only from {!certificate_verdict} on a
          deadline-degraded certificate. *)

val certify : Game.t -> Strategy.t -> verdict
(** Exact Nash check.  Players are scanned in increasing order and the
    first refutation is returned. *)

val is_nash : Game.t -> Strategy.t -> bool

val certify_parallel : ?domains:int -> Game.t -> Strategy.t -> verdict
(** Like {!certify}, with the per-player best-response checks fanned
    out over OCaml 5 domains (see {!Parallel}).  When refuted, the
    returned witness may belong to any deviating player (whichever
    domain finished first), not necessarily the smallest index.  It
    counts a refutation in [equilibrium.early_exits] only when the
    refuted player is not the last one.  The sequential certifiers
    ({!certify}, {!certify_swap}, {!certify_cert},
    {!certify_swap_cert}) share one player loop and count every
    refutation that left players unaudited; {!certify_parallel_cert}
    audits every player and counts none. *)

val is_nash_parallel : ?domains:int -> Game.t -> Strategy.t -> bool

val certify_swap : Game.t -> Strategy.t -> verdict
(** Swap-stability check (polynomial). *)

val is_swap_stable : Game.t -> Strategy.t -> bool

val digraph_is_nash : Cost.version -> Bbng_graph.Digraph.t -> bool
(** Convenience: reads the profile and budgets off a realization.  This
    is how the paper's constructions are certified (their budgets are
    defined by their arcs). *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Certificates: auditable on-disk evidence}

    A certificate is the audit trail of one certification: per player,
    which tier decided (exact scan / Lemma 2.2 / cost floor / swap
    scan), how many candidates were decided (priced, or bound-decided
    in an exact scan), and the cheapest deviation priced.  It is
    serialized through {!Bbng_obs.Certificate} to a single-line JSON
    artifact, and {!verify_certificate} re-checks it
    {e independently} — game rebuilt from the recorded budgets and
    arcs, every recorded deviation re-priced through the {e other}
    pricing engine (evidence records which of the two exact engines
    produced it: overlay-BFS evidence re-prices through the
    distance-row engine, rows evidence through the generic evaluator),
    pruning tiers re-derived, candidate-space sizes re-counted with
    explicit overflow handling, and a seeded sample of non-recorded
    candidates re-scanned — so "this profile passed NE(exact)" becomes
    a checkable file instead of an ephemeral boolean. *)

type mode = Exact_mode | Swap_mode

val mode_name : mode -> string
val mode_of_name : string -> mode option

type certificate = {
  cert_version : Cost.version;
  cert_mode : mode;
  cert_profile : Strategy.t;
  cert_evidence : (int * Best_response.audit) list;
      (** players in increasing order; a refutation, if any, is the
          last entry *)
}

val certify_cert :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> certificate
(** Certificate-producing {!certify}: same scan order, same pruning,
    same verdict, plus evidence.  The evidence records the engine that
    priced each audit (the player's budget selects it: distance rows at
    b ≥ 2, overlay BFS otherwise).

    [?budget] (default unlimited) bounds the work: once the token
    trips, each remaining player still gets the cheap tiers
    (cost-floor, Lemma 2.2) but any player needing the exponential scan
    degrades to a [Degraded_scan] audit instead of raising.  The
    resulting certificate carries verdict {!Degraded} (with the
    unresolved players), is stamped with a [degraded] provenance field
    on disk, and still passes {!verify_certificate} — which re-checks
    exactly the weaker claim it makes.  Never raises
    [Budgeted.Expired]. *)

val certify_swap_cert :
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> Strategy.t -> certificate
(** Certificate-producing {!certify_swap}.  [?budget] as in
    {!certify_cert}. *)

val certify_parallel_cert :
  ?domains:int ->
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t ->
  Strategy.t ->
  certificate
(** Certificate-producing {!certify_parallel}.  Unlike
    [certify_parallel], the result is deterministic: every player's
    audit is computed and the evidence is truncated at the
    lowest-index refutation, so the certificate equals the sequential
    one.  Each domain builds its own evaluation context, so the
    distance-row engine's caches are never shared across domains. *)

val certificate_verdict : certificate -> verdict

val certificate_kind : string
(** ["bbng.equilibrium-certificate"] — the artifact [kind]. *)

val certificate_to_artifact : certificate -> Bbng_obs.Certificate.t

val certificate_of_artifact :
  Bbng_obs.Certificate.t -> (certificate, string) result
(** Structural validation: header fields present, profile parses and
    matches the recorded budgets, evidence well-formed, and the
    recorded verdict agrees with the evidence.  Artifacts written
    before the [engine] / [candidates] evidence fields existed read
    back as overlay-BFS evidence with the candidate space recomputed
    from the profile; explicit but malformed values are errors. *)

val write_certificate : string -> certificate -> unit

val read_certificate : string -> (certificate, string) result

val verify_certificate : ?samples:int -> certificate -> (unit, string) result
(** Independent re-check (default [samples = 32] random non-recorded
    candidates per exhaustively-scanned player, seeded
    deterministically).  [Ok ()] means: every recorded cost re-evaluates
    to itself {e through the other engine} (see the section preamble),
    every pruning tier's condition really holds, recorded
    candidate-space sizes match an independent re-count (a complete
    scan over a [Saturated] space is rejected outright — no finite
    scan covers it), complete scans have the right candidate count,
    the recorded best never beats the current cost without a recorded
    improvement, a recorded refutation really improves, and no sampled
    candidate improves on a player certified optimal.  Any mismatch is
    an [Error] naming the player and the discrepancy.

    Degraded evidence is verified against the {e weaker} claim it
    makes: a [Degraded_scan] audit must carry no improvement, must have
    scanned strictly fewer candidates than a complete scan, and its
    recorded best must re-price correctly without improving — but gets
    no spot-check, since "no unscanned candidate improves" is exactly
    what an interrupted scan does not claim.  Both [Equilibrium] and
    [Degraded] verdicts require evidence for every player. *)

(** {1 Exhaustive enumeration (small instances)} *)

val iter_profiles : Budget.t -> (Strategy.t -> unit) -> unit
(** Every strategy profile of the instance, lexicographically: the full
    range [iter_profiles_range ~lo:0 ~hi:(count_profiles budgets)].
    The count is [prod_i C(n-1, b_i)]: practical for [n <= 6]-ish.
    @raise Invalid_argument on a saturated profile space (more than
    [max_int] profiles), before any profile is produced. *)

val iter_profiles_range :
  Budget.t -> lo:int -> hi:int -> (Strategy.t -> unit) -> unit
(** Profiles at lexicographic indices [[lo, hi)] of {!iter_profiles}'s
    order — the restartable slice a census shard scans.  Its odometer
    is the library's only walk of the profile space: {!iter_profiles},
    Poa's exact OPT, and {!iter_verdicts_range} (behind
    {!enumerate_equilibria}, {!equilibrium_diameter_range}, Poa's exact
    prices and the census) all go through it.  Seeks to [lo] by
    combination unranking (no replay of predecessors), then steps the
    per-player odometer, whose fastest digit is the last player's.
    @raise Invalid_argument on a saturated profile space or a range
    outside [[0, count_profiles budgets]]. *)

val iter_verdicts_range :
  Game.t -> lo:int -> hi:int -> (Strategy.t -> bool -> unit) -> unit
(** [iter_verdicts_range game ~lo ~hi f] calls [f profile nash] for
    every profile of {!iter_profiles_range}[ ~lo ~hi], in order, with
    [nash = is_nash game profile].  It is the one Nash filter of every
    exhaustive consumer: {!enumerate_equilibria},
    {!equilibrium_diameter_range}, [Poa.exact_prices] /
    [Poa.exact_welfare_prices] and [Census.scan].

    The walk prices a {e group} at a time.  The odometer's fastest
    digit is the last player's, so each run of k = C(n-1, b_{n-1})
    consecutive profiles shares every other strategy, hence G∖(n-1).
    At each group start (and at [lo], which may cut a group: the
    pricing does not depend on the last player's own strategy) one
    {!Deviation_eval} context for player n-1 prices all k of its
    strategies.  A profile whose last player costs more than the group
    minimum is refuted with no further work
    ([equilibrium.group_refuted]); any other is audited over players
    0..n-2 in order, as {!certify} audits them, stopping at the first
    refutation ([equilibrium.players_certified] and
    [equilibrium.early_exits] count those audits).  At k = 1 nothing
    is priced.  Per profile this costs one context per group (k
    candidate prices) plus the survivors' audits, where a per-profile
    {!is_nash} audits from player 0 on every profile.
    @raise Invalid_argument as {!iter_profiles_range} does. *)

val count_profiles : Budget.t -> int
(** [prod_i C(n-1, b_i)], saturating at [max_int]. *)

val enumerate_equilibria : ?limit:int -> Game.t -> Strategy.t list
(** All Nash equilibria of a small instance, in enumeration order,
    stopping after [limit] (default: no limit).  Used to compute exact
    max/min equilibrium diameters (hence exact PoA/PoS) on small
    instances. *)

val equilibrium_diameter_range : Game.t -> (int * int) option
(** [(min, max)] diameter over {e all} equilibria of a small instance
    ([None] if the game has no pure equilibrium — the paper proves one
    always exists, so [None] signals a bug or a too-large instance). *)
