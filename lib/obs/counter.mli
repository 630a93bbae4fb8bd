(** Named monotonic counters: the process's one counter registry.

    Each counter is 8 per-domain atomic cells.  A bump is one atomic
    fetch-and-add on the cell indexed by [Domain.self () land 7], so
    {!Bbng_core.Parallel} workers mostly write different cells; reads
    ({!get}, {!find}, {!snapshot}) sum the cells.  A read is exact once
    writers have quiesced and momentarily racy while they run: an
    in-flight increment lands in this read or the next one, never
    nowhere.  Bumps are cheap enough for hot paths (nanoseconds;
    instrumented call sites amortize further by adding batch totals,
    e.g. one [add] per BFS rather than one [bump] per vertex).

    Counters are process-global and registered by name at module
    initialization; {!make} is idempotent, so a test can re-[make] a
    production counter to read or diff it.  [--stats], heartbeat
    [counters], ledger rows, [run.summary]'s [counters] object and the
    {!Openmetrics} snapshot all read this registry. *)

type t

val make : string -> t
(** Register (or look up) the counter named [name].  The same name
    always yields the same counter. *)

val bump : t -> unit
val add : t -> int -> unit

val get : t -> int
(** Sum over the per-domain cells. *)

val find : string -> int
(** Current value of the counter named [name]; [0] if it was never
    registered. *)

val snapshot : unit -> (string * int) list
(** All registered counters, sorted by name. *)

val reset_all : unit -> unit
(** Zero every registered counter (the registry itself is kept).  For
    per-run deltas in benches and tests. *)
