(** The fold over a recorded run, and the tail-and-render engine
    behind [bbng_cli top].

    Folds a [--report] JSONL stream — finished, or still being written
    by a live run — into a {!state} and renders a compact terminal
    frame from it: current phase (last dynamics step / event), latest
    [progress.heartbeat] (rate, ETA, budget headroom), top counters
    from the heartbeat's embedded snapshot, and span latency quantiles
    rebuilt from the tailed [span] events.  [bbng_cli report]
    ({!Trace_export.summarize}) and {!Ledger.of_report_events} read
    their sections off the same state.

    Robustness contract: the tail consumes only complete
    newline-terminated lines (a half-written trailing line stays
    buffered until the writer finishes it), and {!feed_line} treats
    unparseable input as a counted skip, never an exception — so
    watching a [.partial] mid-write, or after a SIGKILL tore the last
    line, cannot crash the viewer. *)

type state = private {
  tally : (string, int) Hashtbl.t;  (** events per name *)
  mutable events : int;  (** events folded in *)
  mutable skipped : int;  (** lines that did not parse as events *)
  mutable first_ts_us : float option;  (** [ts_us] stamps: first and last... *)
  mutable last_ts_us : float option;
  mutable min_ts_us : float option;  (** ...and smallest and largest *)
  mutable max_ts_us : float option;
  mutable last_event : string option;
  mutable last_heartbeat : Json.t option;
  mutable heartbeats : int;  (** [progress.heartbeat] events seen *)
  mutable last_beat_per_task : (string * Json.t) list;
      (** latest heartbeat per task, tasks in first-seen order *)
  mutable last_step : Json.t option;
  mutable dynamics_start : Json.t option;
  mutable last_diagnosis : Json.t option;
      (** since the latest [dynamics.start] *)
  mutable last_outcome : Json.t option;  (** since the latest [dynamics.start] *)
  mutable diagnoses : Json.t list;  (** every one, newest first *)
  mutable outcomes : Json.t list;  (** every one, newest first *)
  mutable first_summary : Json.t option;  (** [run.summary] events *)
  mutable summary : Json.t option;  (** the latest *)
  spans : (string, Histogram.t) Hashtbl.t;  (** [dur_us] per span name *)
}
(** Accumulated view of everything folded in so far. *)

val create_state : unit -> state

val feed_event : state -> Json.t -> unit
(** Fold one event object in. *)

val feed_line : state -> string -> unit
(** Fold one complete line into the state.  Blank lines are ignored;
    non-JSON, truncated JSON and objects without an ["event"] field
    are counted as skipped; nothing raises. *)

val finished : state -> bool
(** Whether a [run.summary] event has been seen — the recording is
    complete and a [top] loop may stop polling. *)

(** {1 Incremental file tailing} *)

type tail

val open_tail : string -> tail
(** Start tailing [path] from offset 0.  The file need not exist yet —
    {!poll} just reports no progress until it does. *)

val retarget : tail -> string -> unit
(** Switch the tail to a sibling path, keeping the read offset — for
    following an [Atomic_io] stream across its [.partial] → final
    commit rename (the bytes are identical, only the name changes). *)

val poll : tail -> state -> int
(** Read whatever the file grew since the last poll, feed every
    complete line into [state], and return how many lines were fed.
    A missing file yields 0; a file that shrank (a fresh run replaced
    it) restarts the tail from offset 0. *)

(** {1 Rendering} *)

val render : ?width:int -> state -> source:string -> string
(** One terminal frame (plain text, trailing newline per line).
    [source] is the path label shown in the header. *)
