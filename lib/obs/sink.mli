(** Pluggable event sinks.

    An {e event} is a name plus flat JSON fields.  Instrumented code
    emits events at coarse milestones (a dynamics step, a run summary);
    the installed sinks decide where they go:

    - [Null]: nothing installed — {!emit} is one atomic load and an
      immediate return, so instrumentation stays compiled-in for free;
    - [Stderr_pretty]: one human-readable line per event on stderr
      (this is what [--trace] routes through);
    - [Jsonl oc]: one JSON object per line on [oc].  Output is
      buffered for throughput, except that milestone events — every
      [dynamics.*] event, [progress.heartbeat] and [run.summary] — are
      flushed as they are written (each dynamics step is one applied best-response move,
      so the flush is noise next to the search that produced it).  The
      channel is also flushed whenever the sink is uninstalled ({!set},
      {!scoped} exit), on {!flush_all}, and in an [at_exit] hook — so
      an interrupted or even SIGKILLed [--report] run leaves a
      parseable prefix holding every applied step.

    Several sinks can be active at once ([--trace --report f.jsonl]
    installs both), and they all see the same events — that is what
    keeps the human trace and the machine report in agreement. *)

type t =
  | Null
  | Stderr_pretty
  | Jsonl of out_channel

val set : t -> unit
(** Replace all installed sinks ([set Null] uninstalls everything).
    Previously installed JSONL sinks are flushed before being
    dropped. *)

val add : t -> unit
(** Install an additional sink ([add Null] is a no-op). *)

val scoped : t -> (unit -> 'a) -> 'a
(** [scoped s f] installs [s] alongside the current sinks for the
    duration of [f] and restores the previous sink list afterwards
    (flushing [s] on the way out, even on raise).  This is how the
    experiment harness records one dynamics run into one artifact file
    without disturbing a surrounding [--report] stream. *)

val flush_all : unit -> unit
(** Flush every installed JSONL sink.  Also installed as an [at_exit]
    hook, so buffered report lines survive normal process exit; a sink
    whose channel was already closed is skipped silently. *)

val active : unit -> bool
(** [true] iff at least one non-[Null] sink is installed.  Call sites
    use this to skip building field lists. *)

val now_us : unit -> float
(** Microseconds since the observability layer initialized — the clock
    origin every emitted [ts_us] field shares, so a report's timestamps
    are mutually comparable (and convertible to Chrome trace time). *)

val to_us : float -> float
(** Convert a [Unix.gettimeofday] reading onto the {!now_us} clock —
    how {!Profile.close} stamps a span's exact start ([t0_us]) on the
    same origin as the close event's [ts_us]. *)

val emit : string -> (string * Json.t) list -> unit
(** [emit name fields] stamps the event with [ts_us] ({!now_us} at call
    time) and delivers it to every installed sink.  The JSONL rendering
    is [{"event": name, "ts_us": _, ...fields}]; the pretty sink renders
    the timestamp as a [+12.345ms] prefix instead of a field.  Output is
    mutex-serialized: concurrent emitters never interleave bytes
    within one line. *)
