(** Append-only run index ("the ledger"): one JSONL row per run, so
    campaigns of many runs stay queryable after the fact
    ([bbng_cli runs list/show/diff/gc/rebuild]).  Rows carry no digest
    of their own: the parse is tolerant, a torn line is skipped, and a
    row records its report's digest ([report_digest]).

    Producing side — a process-global pending row.  A front end (the
    CLI, the bench harness) calls {!set_context} once; instrumented
    layers then fill the row in as the run unfolds ({!add_metric},
    {!note_outcome}, and every {!Atomic_io} commit auto-registers its
    artifact path), and a single {!append_current} at exit writes the
    row through {!Atomic_io.append_line}.  The append is the {e last}
    at-exit action, after the report stream commits, so the row can
    carry the committed report's digest.

    Durability contract: appends are single [O_APPEND] lines, so a
    crash tears at most the trailing line; readers ({!load}) skip torn
    or alien lines, and {!rebuild} re-derives lost rows from the report
    artifacts themselves — a lost or torn index is never fatal.

    The ledger lives at [BBNG_ledger.jsonl] in the working directory;
    the [BBNG_LEDGER] environment variable overrides the path, and the
    values ["off"], ["none"], ["0"] or the empty string disable it. *)

val env_var : string
val default_file : string

val resolve_file : unit -> string option
(** Ledger path per the [BBNG_LEDGER] contract above; [None] when
    disabled. *)

(** {1 Rows} *)

type row = {
  run_id : string;
  ts : string;  (** UTC, [YYYY-MM-DDThh:mm:ssZ] — sorts lexicographically *)
  tool : string;  (** ["bbng_cli"], ["bench"], ["recovered"] *)
  subcommand : string;
  argv : string list;
  outcome : string;
      (** "ok" / "error" / a domain verdict ("converged", "equilibrium", …) *)
  exit_code : int;  (** [-1] = unknown (recovered from a dead run) *)
  metrics : (string * Json.t) list;
      (** game/bench figures; numeric ones are what [runs diff] gates *)
  counters : (string * int) list;  (** nonzero observability counters *)
  artifacts : string list;  (** every Atomic_io-committed path *)
  report : string option;  (** the [--report] stream, as found on disk *)
  report_digest : string option;  (** MD5 hex of [report]'s bytes *)
  extra : (string * Json.t) list;
      (** fields this binary does not know — preserved verbatim on
          rewrite, so newer schemas survive older binaries *)
}

val row_to_json : row -> Json.t
(** Single-line object, [extra] fields appended verbatim. *)

val row_of_json : Json.t -> row option
(** Tolerant inverse: anything that is an object with a string
    [run_id] is a row; known keys of unexpected shape and unknown keys
    land in [extra].  [None] (never an exception) otherwise. *)

val numeric_metrics : row -> (string * float) list
(** The [Int]/[Float] metrics, for threshold comparison. *)

val artifact_live : string -> bool
(** Whether an artifact reference still points at something on disk:
    the committed [path] {e or} its resumable [path.partial] sibling
    (a census checkpoint, an interrupted recording).  [runs gc] prunes
    a reference only when both are gone. *)

val load : ?file:string -> unit -> row list * int
(** Rows in file order plus the count of skipped (torn/alien) lines.
    A missing file is an empty ledger, not an error. *)

val append_row : ?file:string -> row -> unit
(** Append one row via {!Atomic_io.append_line}.  IO errors are
    swallowed: the ledger is telemetry, it must never fail the run. *)

(** {1 The current run's pending row} *)

val run_id : unit -> string
(** This process's run id (generated once, on first use); also stamped
    into [run.summary] by {!Stats.summary_fields} so a report stream
    joins back to its ledger row. *)

val set_context : tool:string -> subcommand:string -> unit
(** Enable the pending row and install the {!Atomic_io.set_commit_hook}
    that inventories committed artifacts.  Front ends that should not
    index themselves (read-only viewers) simply never call this. *)

val note_report : string -> unit
(** Record the run's [--report] path (["-"] is ignored); at append
    time the row digests whichever of [path] / [path.partial] exists. *)

val note_artifact : string -> unit
(** Add a committed artifact path (deduplicated, order-preserving);
    normally called via the {!Atomic_io} commit hook. *)

val note_outcome : string -> unit
(** Set the domain outcome (last call wins).  Unset rows default to
    ["ok"] / ["error"] by exit code. *)

val note_exit : int -> unit
val add_metric : string -> Json.t -> unit

val append_current : unit -> unit
(** Append the pending row (at most once; no-op when disabled or when
    {!resolve_file} says off).  Registered with [at_exit] by front
    ends, {e before} cmdliner evaluation so LIFO ordering runs it after
    the report stream commits. *)

(** {1 Rebuild from artifacts} *)

val of_report_events : path:string -> Json.t list -> row
(** Re-derive a row from a recorded event stream: run id from
    [run.summary] (digest-derived for pre-ledger recordings), outcome
    and game metrics from the last [dynamics.outcome], timestamp from
    the file's mtime. *)

val rebuild : ?file:string -> dirs:string list -> unit -> int * int * int
(** [rebuild ~dirs ()] scans [dirs] (non-recursive) for [*.jsonl] /
    [*.jsonl.partial] event streams, merges recovered rows with the
    parseable rows already in the ledger (existing [run_id]s win),
    sorts by timestamp and atomically rewrites the ledger.  Returns
    [(kept_existing, recovered, dropped_torn_lines)]. *)
