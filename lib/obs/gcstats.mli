(** Process-wide GC telemetry as [Gc.quick_stat] deltas.

    [Gc.quick_stat] reads the runtime's accumulators without forcing a
    collection.  Its figures are process-wide only — every domain's
    allocation, and only as of the last minor collection — so they
    describe a run or a heartbeat window, never one span: {!Span}
    diffs the calling domain's own [Gc.counters] instead.  The final
    [run.summary] event carries {!since_start} — the run's total
    allocation pressure — under the ["gc"] key, and progress
    heartbeats carry the delta since the previous beat. *)

type snapshot = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  heap_words : int;
}

val capture : unit -> snapshot

type delta = snapshot

val diff : snapshot -> snapshot -> delta
(** [diff before after]: counter fields subtract; [heap_words] is a
    level, not a counter, so the delta reports [after]'s level. *)

val since : snapshot -> delta
val since_start : unit -> delta

val to_json : delta -> Json.t

val pp_line : out_channel -> delta -> unit
(** One human-readable ["gc: ..."] line (the [--stats] rendering). *)
