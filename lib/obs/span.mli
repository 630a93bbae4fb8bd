(** Nestable wall-clock timing spans.

    Spans aggregate into a process-global table keyed by span name:
    count, total and maximum duration, a log-bucketed latency
    {!Histogram} (so [--stats] can report p50/p90/p99 per span family),
    and the {!Gcstats} minor/major-word allocation attributed to the
    span's scope.  Nesting is free-form — an inner span's time (and
    allocation) is also counted inside every enclosing span (the table
    records durations, not an exclusive-time tree).

    Spans are {e disabled by default} and then cost one atomic load per
    {!with_} call (no clock read, no GC capture, no histogram, no
    allocation beyond the caller's closure).  [--stats] / [--report]
    style entry points call {!set_enabled}[ true]; timed sections must
    not change behavior either way.

    While a sink is active, every span close also {!Sink.emit}s a
    ["span"] event carrying [name], [dur_us], the exact start stamp
    [t0_us] (on the same {!Sink.now_us} clock as [ts_us]), the closing
    domain [dom] and the minor-word delta [minor_w] — what
    {!Trace_export} turns into Chrome trace complete slices and
    {!Profile.of_events} re-nests into offline folded stacks.

    Every enter/exit pair also feeds {!Profile}: the profiler keeps a
    per-domain stack of open spans and attributes self-time and
    self-allocation to the full call path (see {!Profile}).

    The aggregate table is sharded per domain (the {!Counter} pattern),
    so spans close concurrently from {!Bbng_core.Parallel} domains
    without contending; keep spans coarse (per player / per phase, not
    per vertex). *)

type handle
(** An open span.  Handles are affine: closing twice is a no-op, and a
    handle opened while spans were disabled closes for free. *)

type stat = {
  count : int;
  total_ns : int;
  max_ns : int;
  minor_words : float;  (** GC minor words allocated inside the span *)
  major_words : float;
  p50_ns : float;  (** histogram estimates, within 2x of exact *)
  p90_ns : float;
  p99_ns : float;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

val enter : string -> handle
val exit : handle -> unit
(** Close the span and record its duration.  Unbalanced use is safe:
    closing a handle twice records it once, and a never-closed handle
    simply records nothing. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span named [name]; the span closes
    (recording duration, latency-histogram sample and GC delta) even if
    [f] raises. *)

val time : string -> (unit -> 'a) -> 'a
(** Alias of {!with_} (the original name; kept for instrumented call
    sites). *)

val snapshot : unit -> (string * stat) list
(** All recorded spans, sorted by name. *)

val reset_all : unit -> unit
