(** The CLI's structured error taxonomy: every failure mode of every
    subcommand maps to one documented exit code (see the README's
    "Resilience & limits" table), so scripts and the fault-matrix smoke
    stage can assert on outcomes instead of scraping stderr.

    [124]/[125] are cmdliner's own usage/internal codes, documented
    here for completeness; [137] is the shell's rendering of SIGKILL
    (128 + 9), what an injected [kill] fault produces. *)

(** - [ok] ([0]);
    - [failure] ([1]): domain failure — refuted verification, failed
      certificate re-check, divergent replay;
    - [input_error] ([2]): malformed graph file, profile or JSON
      artifact (the message names the input);
    - [exhausted] ([3]): deadline/work budget expired with no usable
      degraded result;
    - [io_error] ([4]): filesystem error;
    - [fault] ([5]): an injected [raise] fault escaped;
    - [cli_error] ([124]) / [internal_error] ([125]): cmdliner's own. *)

val ok : int
val failure : int
val input_error : int
val exhausted : int
val io_error : int
val fault : int
val cli_error : int
val internal_error : int

val describe : int -> string

val of_exn : exn -> (int * string) option
(** Map a known exception class to [(code, message)]:
    [Invalid_argument] and {!Json.Parse_error} to {!input_error},
    [Sys_error] to {!io_error}, {!Budgeted.Expired} to {!exhausted},
    {!Fault.Injected} to {!fault}; [None] for anything else (a real
    bug should still crash loudly). *)
