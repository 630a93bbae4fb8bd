(** Underlying undirected graphs.

    [U(G)] in the paper: arc directions are dropped and a brace becomes a
    single undirected edge for the purpose of {e distances} (multiplicity
    never changes shortest paths).  Structural facts that depend on
    multiplicity (Theorems 4.1/4.2 treat a brace as a 2-cycle) query the
    original {!Digraph.t} instead.

    The graph is stored as one flat CSR (compressed sparse row) pair of
    [int] arrays: row [u] is [targets.(offs.(u)) .. targets.(offs.(u+1) - 1)],
    sorted and duplicate-free.  This is the only adjacency of [U(G)] in
    the substrate: {!Bfs} sweeps these arrays in place, and the
    traversals that walk rows ({!Components}, {!Isomorphism}) read them
    through {!iter_neighbors} or the fields, never through a copy.
    Graphs are immutable; "mutation" always builds a new graph.

    Since rows are deduplicated and sorted, this type is also the
    general-purpose simple-undirected-graph of the substrate, usable on
    its own (e.g. for k-center instances). *)

type t = private {
  n : int;
  offs : int array;
      (** Length [n + 1]: [offs.(0) = 0], [offs.(n) = 2 * edge_count]. *)
  targets : int array;
      (** Length [2 * edge_count]; every row is sorted and
          duplicate-free.  Must not be mutated by callers. *)
}
(** Read-only flat view; build with {!of_digraph}, {!of_out_neighbors}
    or {!of_edges}. *)

val of_digraph : Digraph.t -> t
(** Underlying graph of a realization. *)

val of_out_neighbors : int array array -> t
(** [of_out_neighbors out] is the underlying graph of the digraph in
    which vertex [u] owns the arcs to [out.(u)], built straight from the
    rows without realizing the {!Digraph.t}: it equals
    [of_digraph (Digraph.of_out_neighbors out)] on every input that
    accepts.  A repeated arc merges like a brace.
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a simple graph; edges are unordered pairs,
    duplicates are merged, self-loops rejected.
    @raise Invalid_argument on out-of-range endpoints or self-loops. *)

val n : t -> int

val edge_count : t -> int
(** Number of distinct undirected edges. *)

val neighbors : t -> int -> int array
(** A fresh copy of row [u] (sorted, duplicate-free).  Hot loops use
    {!iter_neighbors} or the fields instead, which copy nothing. *)

val iter_neighbors : (int -> unit) -> t -> int -> unit
(** [iter_neighbors f g u] calls [f v] for every neighbour [v] of [u], in
    increasing order, reading the row in place. *)

val degree : t -> int -> int
val max_degree : t -> int
val min_degree : t -> int
val mem_edge : t -> int -> int -> bool

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], lexicographic. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each edge visited once, with [u < v]. *)

val remove_vertices : t -> int list -> t
(** [remove_vertices g vs] is the induced subgraph on [V \ vs], with the
    surviving vertices {e keeping their original indices}; removed
    vertices remain present but isolated.  This keeps index bookkeeping
    trivial for connectivity checks (Section 7), where we only ask
    whether the remainder is connected {e ignoring} the removed
    vertices — see {!Components.is_connected_except}. *)

val complement : t -> t
(** Simple complement graph (no self-loops). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
