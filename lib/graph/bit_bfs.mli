(** Word-parallel multi-source BFS.

    The bit-parallel BFS of Akiba, Iwata and Yoshida's pruned landmark
    labeling (SIGMOD 2013): up to {!width} sources share one
    level-synchronous traversal, source [j] owning bit [j] of an OCaml
    [int].  Per vertex [v], [(seen t).(v)] holds the sources within the
    current level of [v] and [(front t).(v)] the sources at exactly the
    current level.  One {!step} advances every frontier by one level
    with a single pass over the arcs of the frontier vertices — each
    ORs its word into its neighbours', which keep the bits they have
    not seen yet (ANDNOT) — so a level costs at most O(n + m) word
    operations however many sources share it, against
    O(width · (n + m)) for as many separate sweeps.

    The graph is given as flat CSR int arrays: row [u] is
    [targets.(offs.(u)) .. targets.(offs.(u+1) - 1)], and the rows must
    be symmetric (an undirected graph).  The traversal state is reused
    across {!clear}s, so a steady-state caller allocates nothing. *)

type t

val width : int
(** Sources per word: [Sys.int_size], i.e. 63. *)

val create : offs:int array -> targets:int array -> t
(** A traversal over the graph with [Array.length offs - 1] vertices.
    The arrays are shared, not copied. *)

val clear : t -> unit
(** Back to level 0: no source, nothing seen, nothing pruned. *)

val seed : t -> int -> int -> unit
(** [seed t v bits] starts the sources [bits] at vertex [v] (level 0). *)

val prune : t -> int -> unit
(** [prune t v] stops [v] relaying: its frontier is dropped and every
    source counts as seen there, so no source enters it again.  This is the
    pruning step of pruned landmark labeling — a caller prunes a vertex
    once no source can gain anything by passing through it.  Pruning a
    vertex before the first step removes it from the graph. *)

val step : t -> unit
(** Advance every frontier by one level.  Once a step reaches no new
    vertex the frontier is empty ({!count} is 0), and further steps
    cost O(1) and change nothing. *)

val seen : t -> int array
(** Read-only view: the sources within the current level of each
    vertex (all ones at a pruned vertex).  Valid until the next {!step}
    or {!clear}. *)

val front : t -> int array
(** Read-only view: the sources at exactly the current level of each
    vertex.  Valid until the next {!step} or {!clear}. *)

val queue : t -> int array
(** Read-only view: its first {!count} entries list every vertex whose
    {!front} word is nonzero (a vertex pruned at this level may linger
    with a zero word).  Valid until the next {!step} or {!clear}. *)

val count : t -> int
