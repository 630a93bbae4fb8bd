(** Graph isomorphism for small arc-owned digraphs.

    The equilibrium-enumeration experiments produce hundreds of
    profiles whose realizations differ only by relabelling; reporting
    "#equilibria up to isomorphism" needs an exact isomorphism test.
    The implementation is classical: iterated degree refinement to
    produce a color partition, then backtracking search over
    color-respecting bijections.  Exponential in the worst case, fine
    for the [n <= 12] graphs the experiments enumerate.

    Isomorphism preserves arc direction (hence ownership structure),
    which is the right equivalence for strategy profiles. *)

val digraph_isomorphic : Digraph.t -> Digraph.t -> bool
