(** Multicore helpers (OCaml 5 domains).

    Equilibrium certification is embarrassingly parallel across players
    — each player's best-response check touches only immutable data —
    so the expensive certifications (Figure 1, big tripods, shift
    graphs) can fan out over domains.  No dependency beyond the
    standard library: plain [Domain.spawn] with block scheduling and an
    atomic early-exit flag.

    Keep the task grain coarse: spawning a domain costs far more than a
    BFS, so these helpers are used at the per-player level, not inside
    the subset enumeration.

    Observability: spawns bump the [parallel.domains_spawned] counter,
    and every index a worker skips because the early-exit flag tripped
    bumps [parallel.chunks_abandoned] — so "early exit abandons work"
    is a measurable claim, not a doc promise (see [test_parallel]). *)

val recommended_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core
    for the caller. *)

val map : ?domains:int -> n:int -> (int -> 'a) -> 'a array
(** [map ~n f] is [[| f 0; ...; f (n-1) |]] with the indices fanned out
    block-cyclically over domains.  No early exit: every index is
    evaluated — this is what certificate production uses, where the
    whole point is keeping every player's evidence (deterministic
    output, unlike {!find_map}). *)

val map_dynamic : ?domains:int -> n:int -> (int -> 'a) -> 'a array
(** {!map} with dynamic scheduling: indices are claimed one at a time
    from a shared atomic counter, so heterogeneous per-index costs
    (census shards of very different equilibrium density) balance
    across domains instead of serializing behind the unluckiest block.
    Same determinism as {!map} — every index is evaluated and lands in
    its slot; only the execution interleaving differs. *)

val find_map : ?domains:int -> n:int -> (int -> 'a option) -> 'a option
(** First-ish [Some] produced by any index, or [None].  "First-ish":
    with several domains the winner is the first to {e finish}, not
    necessarily the smallest index — callers needing determinism should
    use one domain.  Early exit: once any index returns [Some], the
    remaining work is abandoned at the next index boundary.  [f] must be
    safe to run concurrently; falls back to a sequential scan when
    [domains <= 1] or [n <= 1]. *)
