open Bbng_core
(** Iterated response dynamics.

    From an initial profile, repeatedly activate a player (per a
    {!Schedule.t}) and apply its move (per a {!type-rule}), until no
    player can improve (the profile is then a Nash equilibrium for
    [Exact_best] moves, a swap equilibrium for swap moves), a previously
    visited profile recurs (a best-response cycle — the phenomenon
    Laoutaris et al. exhibited in the directed variant, left open for
    this game by Section 8), or a step bound is hit. *)

type rule = Best_response.search =
  | Exact_best       (** move to an exact best response *)
  | First_improving  (** first strictly improving strategy found *)
  | Best_swap        (** best single-arc swap *)
  | First_swap       (** first improving single-arc swap *)

val rule_name : rule -> string

val rule_of_name : string -> rule option
(** Inverse of {!rule_name} (used by the replay checker to re-derive
    the move rule from a recording). *)

type outcome =
  | Converged of {
      profile : Strategy.t;
      steps : int;        (** number of strategy changes applied *)
    }
  | Cycle of {
      profile : Strategy.t;  (** first repeated profile *)
      steps : int;           (** step index at which it recurred *)
      period : int;          (** distance since its previous occurrence *)
    }
  | Step_limit of { profile : Strategy.t; steps : int }
  | Interrupted of {
      profile : Strategy.t;  (** last consistent profile; the step whose
                                 search tripped was {e not} applied *)
      steps : int;
    }
      (** the run's cancellation token (deadline / work limit /
          explicit cancel) expired; the recording still closes with a
          [dynamics.outcome] event and remains replayable *)

val outcome_name : outcome -> string
(** ["converged"], ["cycle"], ["step-limit"], ["interrupted"]. *)

val final_profile : outcome -> Strategy.t
val steps : outcome -> int

type trace_entry = {
  step : int;
  player : int;
  old_cost : int;
  new_cost : int;
  social_cost : int;        (** diameter after the move *)
  old_targets : int array;  (** the player's arcs before the move *)
  new_targets : int array;  (** the arcs applied *)
}

val run :
  ?max_steps:int ->
  ?detect_cycles:bool ->
  ?meta:(string * Bbng_obs.Json.t) list ->
  ?on_step:(trace_entry -> unit) ->
  ?budget:Bbng_obs.Budgeted.t ->
  Game.t -> schedule:Schedule.t -> rule:rule -> Strategy.t -> outcome
(** [run game ~schedule ~rule start] iterates until one of the outcomes
    above.  Defaults: [max_steps = 10_000], [detect_cycles = true]
    (profiles are hashed; memory grows with the trajectory length).
    Cycle detection compares full profiles, so a reported [Cycle] is a
    genuine best-response loop, not a hash collision.

    [?budget] (default unlimited) makes the whole run cancellable: the
    token is threaded into every best-response search and checked
    between steps, and expiry yields the typed [Interrupted] outcome
    (never an exception) with the last consistent profile — every step
    already emitted stays valid, so the recording is a replayable
    prefix that [bbng_cli dynamics --resume] can continue from.

    Observability / flight recording: when a {!Bbng_obs.Sink} is
    active, every applied move is emitted as a [dynamics.step] event
    (same payload as {!type-trace_entry}, including the full move),
    bracketed by a [dynamics.start] event carrying everything needed to
    reconstruct the game (version, budgets, start profile, rule,
    schedule, [max_steps], plus the caller's [?meta] fields — seed and
    friends) and a final [dynamics.outcome] event carrying the final
    profile.  The resulting [--report] JSONL is a complete flight
    recording that {!Replay.check_run} (and [bbng_cli replay]) can
    re-apply and verify move by move.

    Convergence diagnostics: every applied step updates the
    [dynamics.social_cost] gauge and the [dynamics.max_regret] gauge
    (max regret among the players probed by the schedule this step —
    an exact 0 the moment the run converges), and feeds a windowed
    plateau/oscillation detector.  Each window of applied steps emits
    a typed [dynamics.diagnosis] event — [converging] (net social
    cost fell), [stalled] (perfectly flat window), or
    [cycling-suspected] (cost rose, or rose-and-returned, the
    signature a best-response cycle leaves) — records the window's
    mean improvement relative to the first window in the
    [dynamics.improvement_decay_pct] histogram, and annotates the
    heartbeat task so [bbng_cli top] shows the verdict live.  A final
    diagnosis event ([final: true]) is aligned with the typed outcome,
    and the run's ledger row stores [dynamics.final_social_cost],
    [dynamics.steps], [dynamics.max_regret] and [dynamics.diagnosis]
    as queryable metrics (see {!Bbng_obs.Ledger}). *)

val stable : Game.t -> rule -> Strategy.t -> bool
(** No player has a move under the rule: post-condition of
    [Converged]. *)
