(** Strategy profiles and their realizations.

    Player [i]'s strategy is a set [S_i] of exactly [b_i] other players;
    the profile [(S_1, ..., S_n)] realizes the digraph with an arc
    [i -> j] for every [j] in [S_i].  Profiles are stored as sorted
    duplicate-free arrays, so profile equality is structural equality
    (needed by the dynamics loop detector). *)

type t
(** An immutable, validated strategy profile. *)

val make : Budget.t -> int array array -> t
(** [make budgets s] validates that [s.(i)] has exactly [Budget.get
    budgets i] distinct targets, none equal to [i], all in range, and
    normalizes each to sorted order.
    @raise Invalid_argument otherwise. *)

val of_sorted : Budget.t -> int array array -> t
(** [of_sorted budgets s] is [make budgets s] for strategies already in
    sorted order, without a copy: the validation allocates nothing and
    the profile keeps [s] and its arrays, so the caller must never
    mutate them again.  Profiles may share strategy arrays this way —
    the profile walk hands each player's array to every profile of the
    run it belongs to.
    @raise Invalid_argument on a strategy {!make} rejects or one that is
    not strictly increasing. *)

val n : t -> int

val budgets : t -> Budget.t
(** The budget vector this profile is valid for. *)

val strategy : t -> int -> int array
(** Sorted target set of a player.  Not to be mutated. *)

val realize : t -> Bbng_graph.Digraph.t
(** The realization [G]: arc [i -> j] iff [j] is in [S_i].  O(n + m). *)

val underlying : t -> Bbng_graph.Undirected.t
(** [Undirected.of_digraph (realize p)], the metric object, built
    straight from the strategies ({!Bbng_graph.Undirected.of_out_neighbors})
    without realizing the digraph.  Memoized in one slot per domain,
    keyed by the physical identity of [p]: repeated calls on the same
    profile value return the same graph, so every deviation context of
    a profile, its player costs and its diameter share one U(G).  A
    profile built by {!with_strategy} (or any other constructor) is a
    new key and gets a fresh graph; asking for it evicts the old one. *)

val with_strategy : t -> player:int -> targets:int array -> t
(** Functional single-player deviation; same validation as {!make}. *)

val of_digraph : Bbng_graph.Digraph.t -> t
(** Reads a profile off a realization (budgets = out-degrees). *)

val random : Random.State.t -> Budget.t -> t
(** Independent uniform strategies: each player picks a uniformly random
    [b_i]-subset of the others. *)

val relabel : t -> int array -> t
(** [relabel p pi] renames every player and every target through the
    permutation [pi] (player [i] becomes [pi.(i)]).  Game-theoretically
    this is an isomorphism of positions: costs, stability, and all
    structural properties are preserved (a property the test suite
    checks).
    @raise Invalid_argument if [pi] is not a permutation of [0..n-1]. *)

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}; used by the dynamics
    loop detector. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** Compact one-line serialization ["b1:t,t,...|b2:..."]-style; inverse
    of {!of_string}. *)

val of_string : string -> t
(** @raise Invalid_argument on malformed input. *)
