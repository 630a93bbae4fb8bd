(** The BFS oracle. *)

val legacy_distances : Bbng_graph.Undirected.t -> int -> int array
(** [Bbng_graph.Bfs.distances] computed by a plain top-down walker over
    the same rows instead of the direction-optimizing kernel: same
    answers, no budget, no counters. *)
