open Bbng_core
(** Structural validators for unit-budget equilibria (Section 4).

    Theorem 4.1: every SUM equilibrium of [(1,...,1)]-BG is connected,
    brace-free, has a unique cycle of length at most 5, and every vertex
    is on the cycle or adjacent to it.
    Theorem 4.2: every MAX equilibrium is connected, has a unique
    directed cycle (possibly a brace) of length at most 7, and every
    vertex is within distance 2 of it.

    [analyze] extracts the cycle/fringe anatomy of any out-degree-1
    realization; [check_*] test the corresponding theorem's conclusion
    and return the first violated clause. *)

type anatomy = {
  connected : bool;
  cycles : int list list;   (** directed cycles, one per weak component *)
  cycle_len : int;          (** length of the unique cycle (0 if none or
                                several) *)
  has_brace : bool;
  max_dist_to_cycle : int;  (** over all vertices, [-1] if no unique cycle *)
  diameter : int;           (** [n^2] when disconnected *)
}

val analyze : Strategy.t -> anatomy
(** @raise Invalid_argument if some player's budget is not 1. *)

type violation = {
  clause : string;   (** human-readable clause that failed *)
}

val check_sum_structure : Strategy.t -> violation option
(** [None] iff the profile satisfies Theorem 4.1's conclusion. *)

val check_max_structure : Strategy.t -> violation option
(** [None] iff the profile satisfies Theorem 4.2's conclusion. *)

val pp_anatomy : Format.formatter -> anatomy -> unit

(** Mergeable isomorphism-class accumulator (census substrate).

    Classifies profiles by realization isomorphism incrementally: each
    [add] buckets the profile under a cheap label-invariant fingerprint
    (degree sequences, brace count, underlying diameter), so the exact
    — exponential worst-case — digraph-isomorphism test only runs
    against representatives sharing the invariant (orbit pruning).
    Accumulators built over disjoint slices of the profile space
    [merge] into the same classes the sequential scan finds, and each
    class keeps its lexicographically smallest member as
    representative, so the final class list is independent of shard
    partitioning and merge order — the property the census's
    byte-identical crash/resume contract rests on. *)
module Iso_acc : sig
  type t

  val empty : t

  val add : t -> Strategy.t -> t
  (** Classify one profile (weight 1). *)

  val add_classes : t -> (Strategy.t * int) list -> t
  (** Re-inject classes deserialized from one checkpoint row (one
      accumulator's {!classes}, so pairwise non-isomorphic): each is
      classified like [add] but carrying its member count, and is
      tested only against the classes [t] held before the call, never
      against another class of the same list. *)

  val merge : t -> t -> t
  (** Union of two accumulators; counts add, representatives minimize. *)

  val classes : t -> (Strategy.t * int) list
  (** [(representative, member count)] per class, sorted by the
      representative's serialization — a canonical order. *)

  val class_count : t -> int
  val total : t -> int

  val fingerprint : Strategy.t -> string
  (** The bucketing invariant (exposed for tests: isomorphic profiles
      must agree on it). *)
end
