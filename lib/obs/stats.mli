(** Run summaries over the counter, span, histogram, gauge and GC
    tables. *)

val counters_json : unit -> Json.t
(** [Obj] of every registered counter, sorted by name. *)

val spans_json : unit -> Json.t
(** [Obj] mapping each span name to
    [{"count": _, "total_ms": _, "max_ms": _, "p50_ms": _, "p90_ms": _,
      "p99_ms": _, "minor_words": _, "major_words": _}].  Name-sorted
    for stable report diffs. *)

val provenance_fields : unit -> (string * Json.t) list
(** [argv], [ocaml_version] and [word_size] — stamped into
    [run.summary] so archived reports are self-describing. *)

val summary_fields : unit -> (string * Json.t) list
(** Provenance plus [("counters", ...); ("spans", ...);
    ("histograms", ...); ("metrics", ...); ("gc", ...)] — the payload
    of a final [run.summary] event or a bench report.  The [metrics]
    object is {!Gauge.to_json}. *)

val print : out_channel -> unit
(** Human-readable summary (the [--stats] output).  Counters at zero
    are omitted; counters sort by count and spans by total time, both
    descending, so the hot path is the first line read.  Spans print
    count, total, p50, p99, max and attributed minor words; a final
    [gc:] line reports the run's {!Gcstats.since_start} delta. *)
