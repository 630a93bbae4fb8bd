(** Fault injection: named probe points that can raise, delay, exit or
    SIGKILL the process on the Nth hit.

    Probes are compiled into the hot seams of the engine — span
    boundaries ([span.<name>], see {!Span}), event emission
    ([sink.<event>], see {!Sink}), the artifact writer's
    commit protocol ([artifact.open] / [artifact.mid_write] /
    [artifact.commit], see {!Atomic_io}) and the profile exporter
    ([profile.export], see {!Profile}) — and cost one atomic load
    when nothing is armed.  Arming happens explicitly ({!arm}) in
    tests, or from the [BBNG_FAULT] environment variable / the CLI's
    [--fault] flag, so any run of any binary can be crashed at a chosen
    point to check the crash-safety contract: an interrupted run must
    leave either a valid replayable JSONL prefix or the untouched
    previous artifact. *)

exception Injected of string
(** Raised by the [raise] action; carries the probe point.  The CLI
    maps an escaped [Injected] to {!Exit_code.fault}. *)

type action =
  | Raise              (** raise {!Injected} at the probe *)
  | Delay_ms of float  (** sleep, then continue (latency injection) *)
  | Exit_code of int   (** [Stdlib.exit] (at_exit hooks run) *)
  | Kill               (** SIGKILL self: no cleanup of any kind runs *)

type spec = {
  point : string;  (** probe point name, matched exactly *)
  action : action;
  after : int;     (** fire on the Nth hit of the point (1 = first) *)
}

val parse : string -> (spec, string) result
(** Grammar: [POINT@ACTION[@NTH-HIT]] with [ACTION] one of [raise],
    [kill], [exit:N], [delay:MS] — e.g.
    ["sink.dynamics.step@kill@20"] kills the process as the 20th
    dynamics step is emitted. *)

val arm : spec -> unit
(** Arm a spec (several may be armed at once). *)

val disarm : unit -> unit
(** Drop every armed spec (tests call this in teardown). *)

val armed : unit -> bool

val env_var : string
(** ["BBNG_FAULT"]: comma-separated {!parse} specs. *)

val init_from_env : unit -> (unit, string) result
(** Arm every spec in [$BBNG_FAULT]; [Error] names the malformed
    spec. *)

val hit : string -> unit
(** Probe point: no-op unless an armed spec matches [point] and its
    hit countdown reaches zero, in which case the action fires. *)
