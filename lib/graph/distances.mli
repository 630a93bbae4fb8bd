(** Distance aggregates: eccentricities, diameter, distance sums.

    These are the raw graph-theoretic quantities; the paper's cost
    functions (with their [Cinf]/[kappa] disconnection penalties) are
    layered on top in [Bbng_core.Cost].  Here a disconnected input
    surfaces as [None] / explicit unreachable counts, never as a
    made-up large number.

    All aggregates run the {!Bfs.distances_into} kernel over the
    graph's own CSR rows with one shared scratch row per call, and every
    entry point takes [?budget]: each BFS sweep checkpoints the token
    and charges its popped count, so a census-scale aggregate is
    interruptible at sweep granularity — on expiry the call raises {!Bbng_obs.Budgeted.Expired} (catch at the
    search boundary, e.g. with {!Bbng_obs.Budgeted.guard}), exactly
    like {!Bfs.distances}.  {!diameter} additionally prunes with the
    iFUB bound and usually finishes after a handful of sweeps. *)

val eccentricity : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int option
(** Local diameter of a vertex: its maximum distance to any vertex.
    [None] if some vertex is unreachable. *)

val fold_eccentricities :
  ?budget:Bbng_obs.Budgeted.t ->
  Undirected.t ->
  ('a -> int -> int -> 'a) ->
  'a ->
  'a option
(** [fold_eccentricities g f init] folds [f acc u ecc_u] over all
    vertices in index order ([Some init] for the empty graph); [None]
    as soon as any vertex cannot reach the whole graph.  One BFS per
    vertex over shared scratch — the legacy full-sweep diameter is
    [fold_eccentricities g (fun a _ e -> max a e) 0], which the qcheck
    oracle pins the pruned {!diameter} against. *)

val diameter : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int option
(** Maximum distance over all pairs; [None] if disconnected; [Some 0]
    for graphs with at most one vertex.

    Computed by iFUB: a BFS from a max-degree root levels the graph, a
    double sweep seeds the lower bound, then fringe vertices are swept
    deepest-level-first until [lb >= 2 * level] certifies every
    remaining pair through the root.  Worst case the old n-sweep scan,
    typically far fewer ([distances.ifub_pruned] counts the vertices
    whose sweep was skipped). *)

val radius : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int option
(** Minimum eccentricity; [None] if disconnected. *)

val center : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int list
(** Vertices of minimum eccentricity (empty iff disconnected and n>0). *)

type sum_result = {
  sum : int;          (** sum of finite distances from the source *)
  unreachable : int;  (** number of vertices with no path from it *)
}

val distance_sum : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> sum_result
(** Ingredients of the SUM cost of a vertex. *)

val wiener_index : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int option
(** Sum of distances over unordered pairs; [None] if disconnected. *)

val all_pairs : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int array array
(** [all_pairs g] is the full distance matrix ([Bfs.unreachable] where no
    path); row [u] is the BFS distance array from [u].  O(n(n+m)). *)

val diameter_of_matrix : int array array -> int option
(** Diameter from a precomputed {!all_pairs} matrix. *)

val farthest : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int * int
(** [farthest g u] is [(v, d)] where [v] is a reachable vertex maximizing
    the distance [d] from [u] (smallest index among ties).  [(u, 0)] when
    [u] is isolated.  Building block for the double-BFS tree diameter. *)
