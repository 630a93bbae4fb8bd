(** Connected components of the underlying graph.

    The game's cost functions penalize disconnection through the number
    of components [kappa] (MAX version) and through [Cinf] distances
    (SUM version), so component counting sits on the hot path of cost
    evaluation. *)

type labelling = {
  label : int array;  (** [label.(v)] is the component id of [v], ids are
                          [0 .. count-1] in order of smallest member. *)
  count : int;        (** number of connected components; 0 iff the graph
                          is empty. *)
}

val components : Undirected.t -> labelling

val components_skip : Undirected.t -> bool array -> labelling
(** [components] of the graph with every [v] where [skip.(v)] holds
    deleted: those are labelled [-1] and never walked through. *)

val count : Undirected.t -> int
(** [count g = (components g).count] without materializing labels. *)

val is_connected : Undirected.t -> bool
(** [true] iff the graph has at most one component (the empty graph is
    connected by convention). *)

val same_component : Undirected.t -> int -> int -> bool

val component_members : labelling -> int -> int list
(** Vertices of a component id, increasing. *)

val sizes : labelling -> int array
(** [sizes l] maps component id to its cardinality. *)

val is_connected_except : Undirected.t -> int list -> bool
(** [is_connected_except g vs] is [true] iff deleting the vertex set
    [vs] leaves a graph whose {e remaining} vertices are all in one
    component (vacuously true when nothing remains).  This is the
    separator test of Section 7: [vs] is a vertex cut iff the result is
    [false]. *)
