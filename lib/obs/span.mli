(** Nestable wall-clock timing spans.

    A span records into {!Profile}'s per-path table, the one span
    store: each close is recorded once, at its full call path.  The
    per-name view {!snapshot} rolls that table up over the paths whose
    last segment is the name — count, total and maximum duration,
    p50/p90/p99 from the summed log-bucketed latency {!Histogram}s,
    and the minor/major words the span allocated.  Nesting is
    free-form — an inner span's time (and allocation) is also counted
    inside every enclosing span (durations are inclusive, not an
    exclusive-time tree; {!Profile} keeps the self-time split).

    GC words are the calling domain's own [Gc.counters] delta, so a
    span is never charged another domain's allocation; a span closed on
    a different domain from the one that opened it records its wall
    time but no GC words.

    Spans are {e disabled by default} and then cost one atomic load per
    {!with_} call (no clock read, no GC read, no allocation beyond the
    caller's closure).  One switch governs spans and {!Profile} alike:
    {!set_enabled} and {!Profile.set_enabled} set the same flag, and
    {!reset_all} and {!Profile.reset_all} clear the same table.
    [--stats] / [--report] / [--profile] entry points turn it on; timed
    sections must not change behavior either way.

    While a sink is active, every span close also {!Sink.emit}s a
    ["span"] event carrying [name], [dur_us], the exact start stamp
    [t0_us] (on the same {!Sink.now_us} clock as [ts_us]), the closing
    domain [dom] and the minor-word delta [minor_w] — what
    {!Trace_export} turns into Chrome trace complete slices and
    {!Profile.of_events} re-nests into offline folded stacks.

    The table is sharded per domain (the {!Counter} pattern), so spans
    close concurrently from {!Bbng_core.Parallel} domains without
    contending; keep spans coarse (per player / per phase, not per
    vertex). *)

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
(** The same flag as {!Profile.set_enabled}. *)

val enter : string -> handle
val exit : handle -> unit
(** Close the span and record its duration.  Unbalanced use is safe:
    closing a handle twice records it once, and a never-closed handle
    simply records nothing. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside a span named [name]; the span closes
    (recording duration, latency-histogram sample and GC delta) even if
    [f] raises. *)

val snapshot : unit -> (string * stat) list
(** Every recorded span name, sorted: the rollup of {!Profile.closes}
    over the paths ending in the name. *)

val reset_all : unit -> unit
(** The same table as {!Profile.reset_all}. *)
