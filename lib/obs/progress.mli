(** Progress heartbeats for long-running loops.

    A {e task} declares work-done / work-total; {!step} drives
    a cooperative ticker that emits a [progress.heartbeat] event
    (rate, ETA, {!Budgeted} headroom, GC deltas, a nonzero-counter
    snapshot) through the installed {!Sink}s whenever {!interval_ms}
    has elapsed, and refreshes the [--metrics-out] OpenMetrics file via
    {!Openmetrics.write}.  Heartbeats are sink flush milestones, so a
    SIGKILLed run's [.partial] report always ends within one tick of
    the death — that is what [bbng_cli top] tails.

    Cooperative means signal- and exit-safe by construction: beats
    happen at loop checkpoints, never from an async context, and the
    [at_exit] backstop (plus {!finalize}, which the CLI calls before
    closing its report channel) emits one final beat per open task.

    Cost discipline: when no sink is installed and no metrics file is
    configured, {!step} is one atomic add plus two atomic loads —
    instrumented loops pay nothing unobserved.  Tasks are domain-safe:
    Parallel workers may {!step} a shared task concurrently, and a CAS
    elects exactly one emitter per beat.

    Environment knobs (read at startup): [BBNG_HEARTBEAT_MS] overrides
    the 1000 ms default interval; [BBNG_METRICS_OUT] configures the
    scrape file for processes without a [--metrics-out] flag. *)

type t

val start : ?total:int -> ?budget:Budgeted.t -> string -> t
(** [start name] registers a live task.  [total] is the declared work
    size in {!step} units; omit it — or pass a saturated estimate
    ([max_int], or anything [<= 0]) — for "unknown", which suppresses
    [total]/[pct]/[eta_s] in the heartbeats.  [budget] (default
    {!Budgeted.unlimited}) contributes deadline/work headroom
    fields. *)

val step : ?n:int -> t -> unit
(** Record [n] (default 1) units of work done, then beat if the
    interval has elapsed. *)

val annotate : t -> (string * Json.t) list -> unit
(** Attach free-form fields to every subsequent heartbeat of this task
    (replaces any previous annotation wholesale).  How the dynamics
    diagnosis verdict reaches [bbng_cli top] between [dynamics.diagnosis]
    events. *)

val finish : t -> unit
(** Emit a closing beat if any progress is unreported, then
    unregister.  Idempotent. *)

val with_task : ?total:int -> ?budget:Budgeted.t -> string -> (t -> 'a) -> 'a
(** [start] / [finish] bracket (finishes on raise too). *)

(** {1 Ticker configuration} *)

val interval_ms : unit -> float
val set_interval_ms : float -> unit
(** Heartbeat interval (default 1000 ms; 0 beats at every
    opportunity).  Clamped at 0. *)

val set_metrics_out : string option -> unit
(** The OpenMetrics snapshot file refreshed on every beat
    ([--metrics-out]); [None] disables. *)

val finalize : unit -> unit
(** Closing beat for every still-open task plus a final metrics-file
    refresh.  Also installed as an [at_exit] backstop; call it
    explicitly before tearing down a report channel so the last
    heartbeat lands inside the report. *)
