open Bbng_core
module Obs = Bbng_obs

type rule = Best_response.search =
  | Exact_best
  | First_improving
  | Best_swap
  | First_swap

let rule_name = function
  | Exact_best -> "exact-best"
  | First_improving -> "first-improving"
  | Best_swap -> "best-swap"
  | First_swap -> "first-swap"

let rule_of_name = function
  | "exact-best" -> Some Exact_best
  | "first-improving" -> Some First_improving
  | "best-swap" -> Some Best_swap
  | "first-swap" -> Some First_swap
  | _ -> None

let mover ?budget rule game profile player =
  (* one span per best-response probe: its p50/p99 is the per-player
     move-selection latency distribution of the whole dynamics run *)
  Obs.Span.with_ "dynamics.select_move" (fun () ->
      Best_response.improve ?budget rule game profile player)

type outcome =
  | Converged of { profile : Strategy.t; steps : int }
  | Cycle of { profile : Strategy.t; steps : int; period : int }
  | Step_limit of { profile : Strategy.t; steps : int }
  | Interrupted of { profile : Strategy.t; steps : int }

let outcome_name = function
  | Converged _ -> "converged"
  | Cycle _ -> "cycle"
  | Step_limit _ -> "step-limit"
  | Interrupted _ -> "interrupted"

let final_profile = function
  | Converged { profile; _ }
  | Cycle { profile; _ }
  | Step_limit { profile; _ }
  | Interrupted { profile; _ } ->
      profile

let steps = function
  | Converged { steps; _ }
  | Cycle { steps; _ }
  | Step_limit { steps; _ }
  | Interrupted { steps; _ } ->
      steps

type trace_entry = {
  step : int;
  player : int;
  old_cost : int;
  new_cost : int;
  social_cost : int;
  old_targets : int array;
  new_targets : int array;
}

module Profile_key = struct
  type t = string
  let of_profile p = Strategy.to_string p
end

let c_steps = Obs.Counter.make "dynamics.steps_applied"
let c_runs = Obs.Counter.make "dynamics.runs"
let h_improvement = Obs.Histogram.make "dynamics.step_improvement"

(* per-window mean improvement as a percentage of the first window's
   mean: 100 = no decay, small = the run is grinding to a halt — the
   decay shape distinguishes geometric convergence from a hard stop *)
let h_decay = Obs.Histogram.make "dynamics.improvement_decay_pct"

let g_social = Obs.Gauge.make "dynamics.social_cost"

(* max regret observed among the players probed in the latest step's
   scheduling round: under any schedule the probed non-movers had
   regret 0 and the mover's regret is its improvement, so this reads
   exactly 0 the moment the run converges (every player probed, none
   improving) *)
let g_regret = Obs.Gauge.make "dynamics.max_regret"

(* Plateau/oscillation detector: classify each window of applied steps
   by the social-cost trajectory through it.  A strictly falling (net)
   window is converging; a flat window nobody's move disturbed is a
   plateau (players improve privately, the diameter does not move); a
   window whose cost rose and came back — or ended higher — is the
   oscillation signature best-response cycles leave. *)
let diag_window = 16

let classify ~net ~rises ~falls =
  if rises = 0 && falls = 0 && net = 0 then "stalled"
  else if net >= 0 then "cycling-suspected"
  else "converging"

let json_targets a =
  Obs.Json.List (Array.to_list (Array.map (fun t -> Obs.Json.Int t) a))

let emit_entry e =
  Obs.Sink.emit "dynamics.step"
    [
      ("step", Obs.Json.Int e.step);
      ("player", Obs.Json.Int e.player);
      ("old_cost", Obs.Json.Int e.old_cost);
      ("new_cost", Obs.Json.Int e.new_cost);
      ("social_cost", Obs.Json.Int e.social_cost);
      ("old_targets", json_targets e.old_targets);
      ("new_targets", json_targets e.new_targets);
    ]

(* The final event names the rule, the outcome and the final profile so
   a run's JSONL is a self-contained flight recording: [Replay.check]
   can re-apply it without any context beyond the file.  The sink treats
   "dynamics.outcome" as a flush milestone, so even a buffered report is
   a valid JSONL prefix the moment the run closes. *)
let emit_outcome ?(extra = []) game ~schedule ~meta rule outcome =
  Obs.Sink.emit "dynamics.outcome"
    (List.concat
       [
         [
           ("rule", Obs.Json.Str (rule_name rule));
           ("schedule", Obs.Json.Str (Schedule.name schedule));
           ("outcome", Obs.Json.Str (outcome_name outcome));
           ("steps", Obs.Json.Int (steps outcome));
           ( "social_cost",
             Obs.Json.Int (Game.social_cost game (final_profile outcome)) );
           ("profile", Obs.Json.Str (Strategy.to_string (final_profile outcome)));
         ];
         extra;
         (match outcome with
         | Cycle { period; _ } -> [ ("period", Obs.Json.Int period) ]
         | Converged _ | Step_limit _ | Interrupted _ -> []);
         meta;
       ])

let run ?(max_steps = 10_000) ?(detect_cycles = true) ?(meta = []) ?on_step
    ?(budget = Obs.Budgeted.unlimited) game ~schedule ~rule start =
  let n = Game.n game in
  Obs.Counter.bump c_runs;
  if Obs.Sink.active () then
    Obs.Sink.emit "dynamics.start"
      ([
         ("rule", Obs.Json.Str (rule_name rule));
         ("schedule", Obs.Json.Str (Schedule.name schedule));
         ( "version",
           Obs.Json.Str (Cost.version_name (Game.version game)) );
         ( "budgets",
           Obs.Json.List
             (Array.to_list
                (Array.map
                   (fun b -> Obs.Json.Int b)
                   (Budget.to_array (Game.budgets game)))) );
         ("profile", Obs.Json.Str (Strategy.to_string start));
         ("players", Obs.Json.Int n);
         ("max_steps", Obs.Json.Int max_steps);
         ("social_cost", Obs.Json.Int (Game.social_cost game start));
       ]
      @ meta);
  (* heartbeat task: one unit per applied step, bounded by max_steps,
     carrying the run's budget headroom into each beat *)
  let progress = Obs.Progress.start ~total:max_steps ~budget "dynamics" in
  let seen : (Profile_key.t, int) Hashtbl.t = Hashtbl.create 256 in
  let remember step profile =
    if detect_cycles then begin
      let key = Profile_key.of_profile profile in
      match Hashtbl.find_opt seen key with
      | Some earlier -> Some (step - earlier)
      | None ->
          Hashtbl.add seen key step;
          None
    end
    else None
  in
  ignore (remember 0 start);
  (* --- convergence diagnostics (see [classify]) --- *)
  let sc0 = Game.social_cost game start in
  let prev_cost = ref sc0 in
  let rises = ref 0 and falls = ref 0 in
  let win_start_cost = ref sc0 in
  let win_improv_sum = ref 0 and win_count = ref 0 in
  let first_win_mean = ref None in
  let diag_state = ref "converging" in
  let last_regret = ref 0 in
  let emit_diagnosis ?(fields = []) ~step state =
    diag_state := state;
    Obs.Progress.annotate progress
      [ ("diagnosis", Obs.Json.Str state) ];
    if Obs.Sink.active () then
      Obs.Sink.emit "dynamics.diagnosis"
        ([
           ("step", Obs.Json.Int step);
           ("state", Obs.Json.Str state);
           ("social_cost", Obs.Json.Int !prev_cost);
         ]
        @ fields)
  in
  let flush_window ~step =
    if !win_count > 0 then begin
      let mean = float_of_int !win_improv_sum /. float_of_int !win_count in
      if !first_win_mean = None then first_win_mean := Some mean;
      let decay_pct =
        match !first_win_mean with
        | Some f when f > 0. -> 100. *. mean /. f
        | _ -> 100.
      in
      Obs.Histogram.record h_decay
        (int_of_float (Float.round decay_pct));
      let net = !prev_cost - !win_start_cost in
      emit_diagnosis ~step
        (classify ~net ~rises:!rises ~falls:!falls)
        ~fields:
          [
            ("window", Obs.Json.Int !win_count);
            ("net_social_cost", Obs.Json.Int net);
            ("rises", Obs.Json.Int !rises);
            ("falls", Obs.Json.Int !falls);
            ("mean_improvement", Obs.Json.Float mean);
            ("decay_pct", Obs.Json.Float decay_pct);
          ];
      rises := 0;
      falls := 0;
      win_start_cost := !prev_cost;
      win_improv_sum := 0;
      win_count := 0
    end
  in
  let record_step ~improvement ~step social =
    if social > !prev_cost then incr rises
    else if social < !prev_cost then incr falls;
    prev_cost := social;
    Obs.Gauge.set_int g_social social;
    win_improv_sum := !win_improv_sum + improvement;
    incr win_count;
    if !win_count >= diag_window then flush_window ~step
  in
  let finish outcome =
    flush_window ~step:(steps outcome);
    (* final verdict aligned with the typed outcome: a proven cycle is
       the thing the detector only suspects, and convergence overrides
       whatever the last window looked like *)
    let final_state =
      match outcome with
      | Converged _ ->
          last_regret := 0;
          "converging"
      | Cycle _ -> "cycling-suspected"
      | Step_limit _ | Interrupted _ -> !diag_state
    in
    emit_diagnosis ~step:(steps outcome) final_state
      ~fields:[ ("final", Obs.Json.Bool true) ];
    let final_sc = Game.social_cost game (final_profile outcome) in
    Obs.Ledger.add_metric "dynamics.final_social_cost" (Obs.Json.Int final_sc);
    Obs.Ledger.add_metric "dynamics.steps" (Obs.Json.Int (steps outcome));
    Obs.Ledger.add_metric "dynamics.max_regret" (Obs.Json.Int !last_regret);
    Obs.Ledger.add_metric "dynamics.diagnosis" (Obs.Json.Str final_state);
    Obs.Ledger.note_outcome (outcome_name outcome);
    Obs.Progress.finish progress;
    emit_outcome game ~schedule ~meta rule outcome
      ~extra:
        [
          ("max_regret", Obs.Json.Int !last_regret);
          ("diagnosis", Obs.Json.Str final_state);
        ];
    outcome
  in
  let rec loop sched_state profile step =
    if step >= max_steps then finish (Step_limit { profile; steps = step })
    else if Obs.Budgeted.expired budget then
      (* checked between steps as well as inside the move search, so a
         token cancelled from outside stops the run even when every
         individual move is cheap *)
      finish (Interrupted { profile; steps = step })
    else begin
      (* The schedule probes players through this memoized move lookup,
         so Max_gain's n probes and the final application share work.
         Each entry keeps the current cost its search priced, which is
         both the probe's gain baseline and the step's [old_cost]. *)
      let cache : (int, Best_response.priced) Hashtbl.t = Hashtbl.create 8 in
      let move_of p =
        match Hashtbl.find_opt cache p with
        | Some m -> m
        | None ->
            let m = mover ~budget rule game profile p in
            Hashtbl.add cache p m;
            m
      in
      let step_max_regret = ref 0 in
      let improving p =
        let r = move_of p in
        match r.Best_response.improving with
        | None -> None
        | Some m ->
            let gain = r.Best_response.current - m.Best_response.cost in
            if gain > !step_max_regret then step_max_regret := gain;
            Some gain
      in
      (* the probe is where the budgeted best-response search runs; an
         expiry mid-probe lands here, is converted to the typed outcome
         (the step was not applied, so [profile]/[step] are the last
         consistent state), and the recording still closes with a
         [dynamics.outcome] event — the report stays replayable *)
      let probed =
        try `Next (Schedule.next_player sched_state ~improving)
        with Obs.Budgeted.Expired -> `Expired
      in
      match probed with
      | `Expired -> finish (Interrupted { profile; steps = step })
      | `Next None ->
          (* every player probed, nobody improves: the regret gauge
             reads an exact 0, not the last applied improvement *)
          Obs.Gauge.set_int g_regret 0;
          last_regret := 0;
          finish (Converged { profile; steps = step })
      | `Next (Some (player, sched_state)) -> (
          let r = move_of player in
          match r.Best_response.improving with
          | None -> assert false (* the schedule only returns improvers *)
          | Some m ->
              let old_cost = r.Best_response.current in
              let old_targets = Strategy.strategy profile player in
              let profile =
                Strategy.with_strategy profile ~player ~targets:m.Best_response.targets
              in
              let step = step + 1 in
              Obs.Counter.bump c_steps;
              Obs.Progress.step progress;
              let improvement = old_cost - m.Best_response.cost in
              Obs.Gauge.set_int g_regret !step_max_regret;
              last_regret := !step_max_regret;
              let social = Game.social_cost game profile in
              record_step ~improvement ~step social;
              if Obs.Span.enabled () then
                Obs.Histogram.record h_improvement improvement;
              if Option.is_some on_step || Obs.Sink.active () then begin
                let entry =
                  {
                    step;
                    player;
                    old_cost;
                    new_cost = m.Best_response.cost;
                    social_cost = social;
                    old_targets;
                    new_targets = m.Best_response.targets;
                  }
                in
                (match on_step with Some f -> f entry | None -> ());
                emit_entry entry
              end;
              (match remember step profile with
              | Some period -> finish (Cycle { profile; steps = step; period })
              | None -> loop sched_state profile step))
    end
  in
  (* [finish] already closed the task on every typed outcome; the
     protect covers raise paths (idempotent, so no double beat).  The
     outer span makes every per-step span (dynamics.select_move and
     below) a child path in the profile: "dynamics.run;..." *)
  Obs.Span.with_ "dynamics.run" @@ fun () ->
  Fun.protect
    ~finally:(fun () -> Obs.Progress.finish progress)
    (fun () -> loop (Schedule.start schedule ~n) start 0)

let stable game rule profile =
  let n = Game.n game in
  let rec check p =
    p >= n
    || ((mover rule game profile p).Best_response.improving = None
       && check (p + 1))
  in
  check 0
