(** Subset enumeration utilities.

    Strategy spaces in the game are exactly the [b]-subsets of the other
    [n-1] players, and the k-center / k-median exact solvers enumerate
    [k]-subsets of vertices, so subset iteration is shared substrate. *)

type count = Exact of int | Saturated
    (** A subset-space cardinality.  [Saturated] marks a value that
        overflowed the native int range: it is an explicit "too many to
        count" answer, never a silently wrong number.  Certificate
        [candidates] fields carry this distinction so a verifier can tell
        "scanned all 406" apart from "space too large to have scanned". *)

val count_to_string : count -> string
(** Decimal digits for [Exact], ["saturated"] otherwise. *)

val binomial : int -> int -> count
(** [binomial n k]; [Exact 0] when [k < 0] or [k > n]; [Saturated] when
    the true value exceeds [max_int]. *)

val binomial_sat : int -> int -> int
(** Saturating convenience for work *estimates* (scheduling, progress
    bars): [max_int] on overflow.  Anything user-visible or verified must
    use [binomial] and handle [Saturated] explicitly. *)

val unrank_combination : n:int -> k:int -> int -> int array
(** [unrank_combination ~n ~k r] is the rank-[r] (0-based) subset in the
    lexicographic order {!iter_combinations} uses, as a fresh sorted
    array.  This is what lets a census shard start mid-space without
    replaying its predecessors.
    @raise Invalid_argument if the space is saturated or [r] is outside
    [[0, C(n,k))]. *)

val rank_combination : n:int -> int array -> int
(** Inverse of {!unrank_combination} on sorted subsets of [{0..n-1}].
    @raise Invalid_argument if the space is saturated. *)

val next_combination : n:int -> int array -> bool
(** In-place lexicographic successor; [false] (array untouched) on the
    last subset.  Together with {!unrank_combination} this gives
    resumable iteration from an arbitrary rank. *)

val iter_combinations : n:int -> k:int -> (int array -> unit) -> unit
(** [iter_combinations ~n ~k f] calls [f] once per size-[k] subset of
    [{0, ..., n-1}], in lexicographic order, passing the subset as a
    sorted array.  The array is reused between calls: callers must copy
    if they retain it.  [f] is called once with [[||]] when [k = 0], and
    never when [k > n].
    @raise Invalid_argument if [k < 0] or [n < 0]. *)

val fold_best :
  n:int -> k:int -> score:(int array -> int) -> ?stop_at:int -> unit ->
  (int array * int) option
(** Minimizes [score] over all [k]-subsets; returns the first best
    subset (copied) and its score.  If [stop_at] is given, stops early
    as soon as a subset scoring [<= stop_at] is found (used with the
    Lemma 2.2 cost floor).  [None] iff there are no subsets. *)
