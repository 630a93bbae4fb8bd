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

    {!parse} and {!validate} are the self-check half: they accept
    exactly what {!render} emits (plus standard whitespace and
    comments, [# HELP] lines included),
    so tests and [bench/main.exe --validate-metrics] can round-trip a
    snapshot without an external Prometheus. *)

val sanitize : string -> string
(** Metric-name mangling: ["dynamics.steps_applied"] becomes
    ["bbng_dynamics_steps_applied"] (characters outside
    [[a-zA-Z0-9_:]] map to ['_'], everything gains the [bbng_]
    namespace prefix). *)

val escape_label_value : string -> string
(** Escape a label value: backslashes, double quotes, newlines. *)

val unescape : string -> string
(** Inverse of {!escape_label_value} (used by the parser). *)

val render : unit -> string
(** One full exposition, ending with the [# EOF] terminator. *)

val write : string -> unit
(** [write path] renders and atomically replaces [path].  Fault probe
    [metrics.scrape] fires on entry when the harness is armed.
    @raise Sys_error as [open_out]/[Sys.rename] do. *)

(** {1 Parsing and validation} *)

type mtype = Counter_t | Gauge_t | Histogram_t | Untyped

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

type family = {
  fam_name : string;
  fam_type : mtype;
  samples : sample list;
}

val parse : string -> (family list, string) result
(** Syntax: families in [# TYPE] order with their samples; label
    values unescaped.  Rejects duplicate families, samples outside a
    family, and a missing [# EOF]. *)

val validate : string -> (family list, string) result
(** {!parse} plus semantic checks: counter samples are non-negative
    with a [_total]-or-bare name, histogram buckets are cumulative
    (non-decreasing in [le] order), the [+Inf] bucket equals [_count],
    and [_sum]/[_count] are present. *)
