(** Lock-light log-bucketed value histograms.

    A histogram is 64 power-of-two buckets of atomic counts: value [0]
    lands in bucket 0 and a value in [[2^(i-1), 2^i)] lands in bucket
    [i].  Recording is a handful of atomic operations — no lock, no
    allocation — so {!module-Bbng_core.Parallel} domains share a
    histogram safely and hot paths can record per-call values (BFS
    frontier sizes, deviation-candidate counts, span latencies) when
    observability is switched on.

    Quantile estimates interpolate linearly inside the bucket holding
    the requested rank.  Because the true rank-th value lies in the same
    power-of-two bucket, every estimate is within a factor of two of the
    exact sample quantile (and [max] is exact). *)

type t

val make : string -> t
(** Find-or-create in the process-global registry (idempotent, like
    {!Counter.make}).  Registered histograms appear in {!snapshot} and
    in the [run.summary] [histograms] object. *)

val unregistered : string -> t
(** A private histogram outside the registry — {!Profile} keeps one per
    span path without polluting the domain-value listing. *)

val record : t -> int -> unit
(** [record t v] adds one observation.  Negative values clamp to 0. *)

val count : t -> int
val total : t -> int

val max_value : t -> int
(** Exact maximum recorded value (0 when empty). *)

val bucket_bounds : int -> int * int
(** [(lo, hi)] inclusive value range of bucket [i]: [(0, 0)] for bucket
    0, [(2^(i-1), 2^i - 1)] otherwise. *)

val bucket_counts : t -> int array
(** Per-bucket observation counts, index-aligned with
    {!bucket_bounds}.  A fresh array; reading is atomic per bucket but
    not across buckets (concurrent writers may land between reads). *)

val merge_counts : t list -> int array
(** Element-wise sum of {!bucket_counts} over several histograms — how
    per-domain shards aggregate into one distribution. *)

val quantile : t -> float -> float
(** [quantile t q] for [q] in [[0, 1]]: estimated [q]-quantile of the
    recorded values, within a factor of two of the exact sample
    quantile.  0 when empty; clamped to [[0, max_value]]. *)

val quantile_of_counts : ?max_value:int -> int array -> float -> float
(** {!quantile} over a raw bucket-count array (as produced by
    {!bucket_counts} or {!merge_counts}) — how {!Span.snapshot}
    estimates a name's quantiles across its paths' histograms.
    [max_value], when known, clamps the top occupied bucket's range
    exactly as the per-histogram path does. *)

val to_json : t -> Json.t
(** [{"count": _, "total": _, "max": _, "p50": _, "p90": _, "p99": _,
     "buckets": [{"lo": _, "hi": _, "count": _}, ...]}] with only the
    occupied buckets listed. *)

val find : string -> t option
(** Registry lookup by name. *)

val snapshot : unit -> (string * t) list
(** All registered histograms, sorted by name. *)

val reset : t -> unit
val reset_all : unit -> unit
(** Zero every registered histogram (the registry keeps its entries). *)
