(** Integer max-flow (Dinic's algorithm).

    Substrate for vertex connectivity (Section 7 of the paper, via
    Menger's theorem): local connectivity between two non-adjacent
    vertices equals the max flow in the vertex-split network with unit
    node capacities.  The network type is mutable and single-use-ish:
    [max_flow] consumes capacities but can be called repeatedly to push
    additional flow between the same terminals. *)

type t

val create : int -> t
(** [create n] is an empty flow network on nodes [0 .. n-1]. *)

val add_edge : t -> src:int -> dst:int -> capacity:int -> unit
(** Adds a directed edge with the given capacity (and its residual
    reverse edge of capacity 0).
    @raise Invalid_argument on out-of-range nodes or negative capacity. *)

val max_flow : t -> source:int -> sink:int -> int
(** Value of a maximum [source -> sink] flow; mutates residual
    capacities.
    @raise Invalid_argument if [source = sink]. *)

val min_cut_side : t -> source:int -> int array
(** After {!max_flow} has saturated the network: characteristic vector of
    the set of nodes still reachable from [source] in the residual graph
    (1 = reachable).  The edges leaving this set form a minimum cut. *)
