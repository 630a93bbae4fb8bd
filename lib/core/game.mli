(** A bounded budget network creation game instance.

    Bundles the version (MAX/SUM) and the budget vector, and provides
    the deviation-evaluation primitive everything else (best response,
    equilibrium certification, dynamics) is built from. *)

type t

val make : Cost.version -> Budget.t -> t
val version : t -> Cost.version
val budgets : t -> Budget.t
val n : t -> int

val player_cost : t -> Strategy.t -> int -> int
(** Cost of one player under a profile.  O(n + m). *)

val costs : t -> Strategy.t -> int array
(** All players' costs.  O(n (n + m)). *)

val deviation_cost : t -> Strategy.t -> player:int -> targets:int array -> int
(** Cost to [player] if it unilaterally plays [targets] (the others
    unchanged).  Does not allocate a new profile: the deviated [U(G)] is
    built directly, in one {!Bbng_graph.Undirected.of_out_neighbors}
    call, without touching {!Strategy.underlying}'s memo.  O(n + m).
    @raise Invalid_argument on a target set that is not a legal
    strategy for [player]. *)

val social_cost : t -> Strategy.t -> int
(** Diameter of the realization ([n^2] when disconnected). *)

val social_welfare : t -> Strategy.t -> int
(** Sum of all players' costs — not the paper's social cost (the paper
    uses the diameter), but a useful secondary statistic for dynamics
    experiments. *)

val pp : Format.formatter -> t -> unit
