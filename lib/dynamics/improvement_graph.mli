open Bbng_core
(** The improvement graph of a small instance: exact data for the
    Section 8 convergence question.

    Vertices are {e all} strategy profiles of the instance; there is an
    arc [p -> q] whenever [q] differs from [p] in exactly one player's
    strategy and that player strictly decreases its cost by the switch.
    Classical facts this makes checkable:

    - the game has the {e finite improvement property} (every improving
      path is finite, i.e. better-response dynamics always converge)
      iff the improvement graph is acyclic;
    - restricting arcs to {e best}-response moves gives the weaker
      finite best-response property (FBRP);
    - sinks of the graph are exactly the Nash equilibria.

    The paper proves equilibria exist but leaves convergence open,
    noting that Laoutaris et al. exhibit a loop in the directed variant.
    Building the full graph is exponential ([prod C(n-1,b_i)] nodes), so
    this is a small-instance instrument — which is precisely how one
    hunts for a counterexample loop or grows confidence none exists. *)

type move_kind =
  | Any_improvement   (** all strictly improving unilateral deviations *)
  | Best_only         (** only deviations to exact best responses *)

type t = {
  profiles : Strategy.t array;         (** node id -> profile *)
  arcs : (int * int) list;             (** improving moves (from, to) *)
  sinks : int list;                    (** node ids with no outgoing arc *)
  has_cycle : bool;                    (** any directed cycle? *)
  cycle_witness : int list option;     (** a directed cycle (node ids,
                                           in order) when one exists *)
  longest_path_lower_bound : int;      (** longest path in the DAG case:
                                           worst-case convergence time;
                                           -1 when cyclic *)
}

val build : ?kind:move_kind -> Game.t -> t
(** Exhaustive construction.  Guard with {!Equilibrium.count_profiles}
    first; intended for a few thousand profiles.  [kind] defaults to
    [Any_improvement]. *)

val to_dot : t -> string
(** Graphviz rendering of the improvement graph: profiles as nodes
    (labelled by their serialization and diameter), improving moves as
    arcs, sinks (Nash equilibria) double-circled.  Only sensible for a
    few hundred profiles. *)

val potential : t -> int array option
(** An {e ordinal potential} extracted from an acyclic improvement
    graph: [phi.(i)] = length of the longest improving path starting at
    profile [i], so every improving move strictly decreases [phi].
    [None] when the graph has a cycle (no ordinal potential exists).
    This is the generalized-ordinal-potential characterization of the
    finite improvement property (Monderer-Shapley), computed rather
    than conjectured. *)
