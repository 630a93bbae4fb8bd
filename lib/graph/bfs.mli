(** Breadth-first search on the underlying undirected graph.

    All distances in the game are hop counts in [U(G)], so BFS is the
    single metric primitive of the whole system.  Unreachable vertices
    get distance {!unreachable} = [-1]; translation to the paper's
    [Cinf = n^2] convention happens in the game's cost layer.

    One kernel serves every entry point: a direction-optimizing sweep
    over the graph's own flat CSR rows ({!Undirected.t}), with no
    snapshot or copy in between.  {!distances_into} runs it on caller
    scratch and allocates nothing; the one-shot walkers ({!distances},
    {!distances_from_set}, {!distance}, {!parents}) use per-domain
    frontier scratch, so each call allocates only its result rows.
    The plain top-down walker the kernel is property-tested against
    is a test oracle and lives outside the library. *)

val unreachable : int
(** [-1], the sentinel for "no path". *)

val distances :
  ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int array
(** [distances g src] is the array of hop distances from [src];
    [unreachable] where there is no path.

    [?budget] (default unlimited) makes the traversal cancellable at
    run granularity: the popped-vertex count is charged as work, and a
    call on an expired token raises {!Bbng_obs.Budgeted.Expired} before
    doing any work — budget-aware search loops (the solvers' exact
    enumerations) catch it at their boundary and degrade. *)

val distances_from_set :
  ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int list -> int array
(** Multi-source BFS: distance to the nearest source.  The paper's
    [dist(u, A)].  All sources get 0.  [?budget] as in {!distances}.
    @raise Invalid_argument if the source list is empty. *)

val distance :
  ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int -> int option
(** [distance g u v] is [Some d] or [None] if disconnected.
    [u = v] answers [Some 0] without a traversal (and without touching
    the token); [?budget] as in {!distances} otherwise.
    @raise Invalid_argument if [u] or [v] is out of range — including
    on the [u = v] fast path. *)

val distances_into :
  ?budget:Bbng_obs.Budgeted.t ->
  Undirected.t ->
  src:int ->
  dist:int array ->
  queue:int array ->
  int
(** [distances_into g ~src ~dist ~queue] is {!distances} written into
    caller scratch: [dist] receives the hop distances ({!unreachable}
    where no path) and [queue] is the frontier; both must have length
    [>= n].  Returns the number of vertices popped (= reached), so a
    result of [n] means [src] reaches everything.  Allocates nothing
    and bumps no counter — the aggregate sweeps of {!Distances} run on
    it.  [?budget] as in {!distances}.
    @raise Invalid_argument on a bad [src] or short scratch arrays. *)

val parents : ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int array
(** BFS tree parents; [parents.(src) = src]; [-1] for unreachable.  Ties
    broken toward the smallest-index parent, so the tree is canonical:
    [parents.(v)] is [v]'s smallest neighbour one hop closer to [src].
    One {!distances} run, counted and charged as such.  [?budget] as in
    {!distances}. *)

val shortest_path :
  ?budget:Bbng_obs.Budgeted.t -> Undirected.t -> int -> int -> int list option
(** A shortest [u -> v] vertex sequence including both endpoints.
    [?budget] as in {!distances}. *)
