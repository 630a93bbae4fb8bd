(** Prometheus/OpenMetrics text snapshots of the live registries.

    {!render} walks the {!Counter}, {!Gauge} and {!Histogram}
    registries once each and renders one text exposition: one
    [counter] family per counter, one [gauge] family per gauge name
    (its labelled cells as samples), one [histogram] family per
    non-empty histogram.  No family carries a [# HELP] line.  {!write}
    refreshes a [.prom] file crash-safely (temp + atomic rename, so a
    SIGKILL mid-scrape leaves the previous snapshot intact).  [--metrics-out] points the
    {!Progress} heartbeat at {!write}, and a future [bbng serve]
    scrape endpoint returns the same bytes.

    Its parser and validator are test oracles and live outside the
    library, with the tests. *)

val escape_label_value : string -> string
(** Escape a label value: backslashes, double quotes, newlines. *)

val render : unit -> string
(** One full exposition, ending with the [# EOF] terminator. *)

val write : string -> unit
(** [write path] renders and atomically replaces [path].  Fault probe
    [metrics.scrape] fires on entry when the harness is armed.
    @raise Sys_error as [open_out]/[Sys.rename] do. *)

type mtype = Counter_t | Gauge_t | Histogram_t | Untyped
(** The family types {!render} emits. *)
