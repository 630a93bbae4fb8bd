(* bbng — command-line laboratory for bounded budget network creation
   games.

   Subcommands:
     construct   build one of the paper's equilibrium families
     verify      certify a serialized profile as a Nash equilibrium
     dynamics    run best-response dynamics from a random start
     opt         OPT diameter bounds (and exact value when feasible)
     kcenter     solve k-center on a G(n,p) instance via Theorem 2.1

   Profiles are serialized as semicolon-separated target lists, e.g.
   "1,2;0;0" is the 3-player profile S_0={1,2}, S_1={0}, S_2={0}. *)

open Cmdliner
open Bbng_core
module Obs = Bbng_obs

(* --- shared term fragments --- *)

let ( let* ) = Result.bind

(* [die] is exit-on-error: unlike a clean exit it leaves an open
   --report stream as FILE.partial (a replayable prefix announcing an
   aborted run) instead of committing it over the previous FILE. *)
let exiting_dirty = ref false

let die code =
  exiting_dirty := true;
  Obs.Ledger.note_exit code;
  Stdlib.exit code

(* Non-zero exit for a run that completed cleanly (the report still
   commits) but whose answer is "no" — verification failure, replay
   divergence, a regressed runs diff.  Unlike [die] it leaves
   [exiting_dirty] unset. *)
let exit_failed code =
  Obs.Ledger.note_exit code;
  Stdlib.exit code

(* Observability setup, shared by every subcommand: [--stats] prints a
   counter/span summary to stderr on exit; [--report FILE.jsonl]
   streams structured events to FILE and appends a final [run.summary]
   event with the counter and span totals.  Both leave the default
   Null sink untouched when absent, so unobserved runs pay nothing. *)
let obs_term =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print a counter/span summary to stderr when the run exits.")
  in
  let report =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE.jsonl"
          ~doc:
            "Stream structured events (one JSON object per line) to \
             $(docv), ending with a run.summary event.  Pass '-' to \
             write JSONL to stdout, enabling pipelines like \
             $(b,bbng_cli dynamics --report - | bbng_cli report \
             --summarize -).")
  in
  let fault =
    Arg.(
      value & opt_all string []
      & info [ "fault" ] ~docv:"POINT@ACTION[@N]"
          ~doc:
            "Arm a fault-injection probe (repeatable).  ACTION is one of \
             raise, kill, exit:N, delay:MS — e.g. $(b,--fault \
             sink.dynamics.step@kill@20) SIGKILLs the process as the 20th \
             dynamics step is emitted.  The $(b,BBNG_FAULT) environment \
             variable takes the same specs, comma-separated.")
  in
  let metrics_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE.prom"
          ~doc:
            "Maintain an OpenMetrics/Prometheus text snapshot of the live \
             counter, gauge and histogram registries at $(docv), rewritten \
             atomically on every progress heartbeat ($(b,BBNG_HEARTBEAT_MS) \
             tunes the cadence, default 1000).  The file is always a \
             complete, parseable exposition — scrape it, or watch the run \
             with $(b,bbng_cli top).")
  in
  let profile_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE.folded"
          ~doc:
            "Write call-path folded stacks on exit: self-time (wall ns) to \
             $(docv) and self-allocation (minor words) to \
             $(i,FILE.alloc.folded), both flamegraph.pl/speedscope \
             compatible.  Implies span collection; see also $(b,bbng_cli \
             flame) for profiling an already-recorded report.")
  in
  let setup stats report faults metrics_out profile_out =
    let rec arm = function
      | [] -> Ok ()
      | s :: rest -> (
          match Obs.Fault.parse s with
          | Ok spec ->
              Obs.Fault.arm spec;
              arm rest
          | Error msg -> Error (Printf.sprintf "bad --fault spec: %s" msg))
    in
    match arm faults with
    | Error _ as e -> e
    | Ok () ->
        (* one switch: spans and call-path attribution share a store,
           so --stats' self-time top-10 and --profile's folded output
           always agree *)
        if stats || report <> None || profile_out <> None then
          Obs.Span.set_enabled true;
        let metrics_result =
          match metrics_out with
          | None -> Ok ()
          | Some path -> (
              (* arm the heartbeat scrape file, and write the first
                 snapshot right now: an unwritable path fails before
                 any work runs, and the file exists from the first
                 moment a scraper could look *)
              Obs.Progress.set_metrics_out (Some path);
              match Obs.Openmetrics.write path with
              | () -> Ok ()
              | exception Sys_error e ->
                  Error (Printf.sprintf "cannot write metrics file %S: %s" path e))
        in
        let result =
          let* () = metrics_result in
          match report with
          | None -> Ok ()
          | Some "-" ->
              Obs.Sink.add (Obs.Sink.Jsonl stdout);
              at_exit (fun () ->
                  (* closing heartbeats first, so they land inside the
                     stream before the summary line ends it *)
                  Obs.Progress.finalize ();
                  Obs.Sink.emit "run.summary" (Obs.Stats.summary_fields ());
                  flush stdout);
              Ok ()
          | Some file -> (
              (* Fail before any work runs: an unwritable --report path
                 is a usage error, not something to discover after
                 minutes of dynamics.

                 The stream lands in FILE.partial and is atomically
                 promoted to FILE on exit, so a crashed or SIGKILLed run
                 leaves any previous FILE untouched and the partial as a
                 valid replayable JSONL prefix (resumable with
                 [dynamics --resume]). *)
              match Obs.Atomic_io.open_stream file with
              | exception Sys_error e ->
                  Error (Printf.sprintf "cannot open report file %S: %s" file e)
              | oc ->
                  Obs.Sink.add (Obs.Sink.Jsonl oc);
                  (* the ledger row will digest whichever of FILE /
                     FILE.partial the exit leaves behind *)
                  Obs.Ledger.note_report file;
                  at_exit (fun () ->
                      Obs.Progress.finalize ();
                      Obs.Sink.emit "run.summary" (Obs.Stats.summary_fields ());
                      Obs.Sink.flush_all ();
                      close_out_noerr oc;
                      if not !exiting_dirty then Obs.Atomic_io.commit_stream file);
                  Ok ())
        in
        let result =
          let* () = result in
          match profile_out with
          | None -> Ok ()
          | Some path -> (
              (* fail-fast writability probe on the temp name, so an
                 unusable path never clobbers an existing .folded *)
              let tmp = Obs.Atomic_io.tmp_path path in
              match open_out tmp with
              | exception Sys_error e ->
                  Error (Printf.sprintf "cannot write profile file %S: %s" path e)
              | oc ->
                  close_out_noerr oc;
                  (try Sys.remove tmp with Sys_error _ -> ());
                  (* registered after the report hook, so at_exit's LIFO
                     order exports the profile before the report stream
                     commits: a crash mid-export leaves the report as a
                     replayable .partial *)
                  at_exit (fun () -> Obs.Profile.write_folded path);
                  Ok ())
        in
        if stats then at_exit (fun () -> Obs.Stats.print stderr);
        result
  in
  Term.term_result'
    Term.(
      const setup $ stats $ report $ fault $ metrics_out $ profile_out)

(* Deadline/work-budget flags, shared by the deadline-aware
   subcommands.  Absent flags yield the shared unlimited token, which
   costs nothing in the hot loops. *)
let budget_term =
  let deadline =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Wall-clock budget in milliseconds.  When it expires, exact \
             searches degrade to typed partial results (degraded \
             certificates, interrupted dynamics) instead of running \
             unboundedly.")
  in
  let max_work =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-work" ] ~docv:"UNITS"
          ~doc:
            "Work budget in vertex-visit units (one BFS costs about n).  \
             Deterministic counterpart of $(b,--deadline-ms).")
  in
  let make deadline_ms work_limit =
    match (deadline_ms, work_limit) with
    | None, None -> Obs.Budgeted.unlimited
    | _ -> Obs.Budgeted.create ?deadline_ms ?work_limit ()
  in
  Term.(const make $ deadline $ max_work)

let version_term =
  let parse = function
    | "max" | "MAX" -> Ok Cost.Max
    | "sum" | "SUM" -> Ok Cost.Sum
    | s -> Error (`Msg (Printf.sprintf "unknown version %S (max|sum)" s))
  in
  let print ppf v = Format.pp_print_string ppf (Cost.version_name v) in
  Arg.(
    value
    & opt (conv (parse, print)) Cost.Sum
    & info [ "cost"; "c" ] ~docv:"VERSION" ~doc:"Cost version: max or sum.")

let seed_term =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let budgets_term =
  let parse s =
    try
      Ok
        (Budget.of_list
           (List.map int_of_string (String.split_on_char ',' (String.trim s))))
    with _ -> Error (`Msg "budgets must look like 0,1,2,1")
  in
  let print ppf b = Budget.pp ppf b in
  Arg.(
    required
    & opt (some (conv (parse, print))) None
    & info [ "budgets"; "b" ] ~docv:"B1,B2,..." ~doc:"Budget vector.")

(* Optional variant for subcommands where the instance can come from
   elsewhere (dynamics --resume reads it out of the recording). *)
let budgets_opt_term =
  let parse s =
    try
      Ok
        (Budget.of_list
           (List.map int_of_string (String.split_on_char ',' (String.trim s))))
    with _ -> Error (`Msg "budgets must look like 0,1,2,1")
  in
  let print ppf b = Budget.pp ppf b in
  Arg.(
    value
    & opt (some (conv (parse, print))) None
    & info [ "budgets"; "b" ] ~docv:"B1,B2,..."
        ~doc:"Budget vector (not needed with --resume).")

(* A recording name and its commit sibling: RUN.jsonl.partial is
   renamed to RUN.jsonl the instant the writer exits cleanly, so any
   offline consumer handed one name must try the other before failing —
   otherwise `flame RUN.jsonl.partial` races the commit it has no way
   to see. *)
let sibling_recording p =
  if Filename.check_suffix p ".partial" then Filename.chop_suffix p ".partial"
  else p ^ ".partial"

let resolve_recording input =
  if input = "-" || Sys.file_exists input then input
  else
    let s = sibling_recording input in
    if Sys.file_exists s then begin
      Printf.eprintf "bbng: %s not found, reading %s\n" input s;
      s
    end
    else input

(* Shared flight-recording reader: '-' is stdin; a just-renamed
   .partial resolves to its final sibling (and vice versa); open
   failures are IO errors (4), never backtraces. *)
let read_events_or_exit input =
  let input = resolve_recording input in
  let events, skipped =
    if input = "-" then Obs.Trace_export.read_events stdin
    else
      match open_in input with
      | exception Sys_error e ->
          Printf.eprintf "bbng: cannot open recording: %s\n" e;
          die Obs.Exit_code.io_error
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> Obs.Trace_export.read_events ic)
  in
  if skipped > 0 then
    Printf.eprintf "bbng: skipped %d non-event line%s\n" skipped
      (if skipped = 1 then "" else "s");
  events

let report_profile version profile =
  let game = Game.make version (Strategy.budgets profile) in
  Format.printf "profile:   %s@." (Strategy.to_string profile);
  Format.printf "graph:     %a@." Bbng_graph.Digraph.pp (Strategy.realize profile);
  Format.printf "diameter:  %d@." (Game.social_cost game profile);
  Format.printf "welfare:   %d@." (Game.social_welfare game profile);
  Format.printf "verdict:   %a@." Equilibrium.pp_verdict
    (Equilibrium.certify game profile)

(* --- construct --- *)

let construct_cmd =
  let family =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FAMILY"
          ~doc:
            "One of: existence (needs --budgets), tripod (needs --k), binary \
             (needs --depth), sun (needs --n), shift (needs --t and --k).")
  in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Family parameter k.") in
  let t = Arg.(value & opt int 4 & info [ "t" ] ~docv:"T" ~doc:"Shift-graph digit count t.") in
  let depth = Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc:"Binary tree depth.") in
  let n = Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Player count.") in
  let budgets =
    Arg.(
      value
      & opt (some string) None
      & info [ "budgets"; "b" ] ~docv:"B1,B2,..." ~doc:"Budget vector (existence).")
  in
  let run () family version k t depth n budgets =
    let open Bbng_constructions in
    match family with
    | "existence" -> (
        match budgets with
        | None -> `Error (false, "existence requires --budgets")
        | Some s ->
            let b =
              Budget.of_list (List.map int_of_string (String.split_on_char ',' s))
            in
            Format.printf "case: %s@." (Existence.case_name (Existence.case_of b));
            report_profile version (Existence.construct b);
            `Ok ())
    | "tripod" ->
        report_profile version (Tripod.profile ~k);
        `Ok ()
    | "binary" ->
        report_profile version (Binary_tree.profile ~depth);
        `Ok ()
    | "sun" ->
        report_profile version (Unit_budget.concentrated_sun ~n);
        `Ok ()
    | "shift" ->
        if version = Cost.Sum then
          Format.printf
            "note: the shift construction is a MAX-version equilibrium; pass -c max@.";
        let c = Shift_graph.certificate ~t ~k in
        Format.printf "lemma 5.2 certificate: n=%d maxdeg=%d valid=%b@."
          c.Shift_graph.n c.Shift_graph.max_degree c.Shift_graph.valid;
        if c.Shift_graph.n <= 64 then report_profile version (Shift_graph.profile ~t ~k)
        else
          Format.printf
            "(n too large to print/certify directly; the certificate stands)@.";
        `Ok ()
    | other -> `Error (false, Printf.sprintf "unknown family %S" other)
  in
  let info =
    Cmd.info "construct" ~doc:"Build one of the paper's equilibrium families."
  in
  Cmd.v info
    Term.(
      ret (const run $ obs_term $ family $ version_term $ k $ t $ depth $ n $ budgets))

(* --- verify --- *)

let pp_evidence_summary ppf (cert : Equilibrium.certificate) =
  let tally = Hashtbl.create 4 in
  let scanned = ref 0 in
  List.iter
    (fun (_, a) ->
      let name = Best_response.tier_name a.Best_response.tier in
      Hashtbl.replace tally name
        (1 + Option.value ~default:0 (Hashtbl.find_opt tally name));
      scanned := !scanned + a.Best_response.scanned)
    cert.Equilibrium.cert_evidence;
  let tiers =
    List.filter_map
      (fun t ->
        match Hashtbl.find_opt tally t with
        | Some c -> Some (Printf.sprintf "%s: %d" t c)
        | None -> None)
      [ "exact"; "swap"; "lemma-2.2"; "cost-floor"; "degraded" ]
  in
  Format.fprintf ppf "%d player%s — %s; %d candidate%s scanned"
    (List.length cert.Equilibrium.cert_evidence)
    (if List.length cert.Equilibrium.cert_evidence = 1 then "" else "s")
    (String.concat ", " tiers) !scanned
    (if !scanned = 1 then "" else "s")

(* The certify-and-print path shared by [verify] and [certify]: the
   certifier the flags choose, the verdict and evidence lines, and the
   [--cert] write; [verify] also prints the realized graph and its
   costs. *)
let certify_and_print ?(describe = false) ~budget version profile cert_out
    swap par =
  let game = Game.make version (Strategy.budgets profile) in
  let cert =
    if swap then Equilibrium.certify_swap_cert ~budget game profile
    else if par then Equilibrium.certify_parallel_cert ~budget game profile
    else Equilibrium.certify_cert ~budget game profile
  in
  Format.printf "profile:   %s@." (Strategy.to_string profile);
  if describe then begin
    Format.printf "graph:     %a@." Bbng_graph.Digraph.pp
      (Strategy.realize profile);
    Format.printf "diameter:  %d@." (Game.social_cost game profile);
    Format.printf "welfare:   %d@." (Game.social_welfare game profile)
  end;
  Format.printf "verdict:   %a@." Equilibrium.pp_verdict
    (Equilibrium.certificate_verdict cert);
  Format.printf "evidence:  %a@." pp_evidence_summary cert;
  (match cert_out with
  | None -> ()
  | Some path ->
      Equilibrium.write_certificate path cert;
      Format.printf "wrote %s@." path);
  `Ok ()

let swap_flag =
  Arg.(
    value & flag
    & info [ "swap" ]
        ~doc:"Certify swap stability instead of exact Nash (polynomial).")

let parallel_flag =
  Arg.(
    value & flag
    & info [ "parallel" ]
        ~doc:"Fan the per-player checks out over domains (same certificate).")

let verify_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROFILE|CERT.json"
          ~doc:
            "A serialized profile (e.g. \"1,2;0;0\") to certify, or the \
             path of a previously written certificate artifact to \
             independently re-check.  An existing file is treated as a \
             certificate.")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"OUT.json"
          ~doc:
            "Write the certification's evidence (per-player tier, \
             candidates scanned, best deviation) as a single-line JSON \
             certificate artifact to $(docv).  Re-check later with \
             $(b,bbng_cli verify OUT.json).")
  in
  let samples =
    Arg.(
      value & opt int 32
      & info [ "samples" ] ~docv:"N"
          ~doc:
            "When re-checking a certificate: random non-recorded \
             candidates re-evaluated per exhaustively scanned player.")
  in
  let verify_artifact path samples =
    match Equilibrium.read_certificate path with
    | Error msg ->
        (* a file that exists but doesn't parse as a certificate is bad
           input, not CLI misuse: taxonomy code 2, message names the
           file *)
        Printf.eprintf "bbng: %s: %s\n" path msg;
        die Obs.Exit_code.input_error
    | Ok cert -> (
        Format.printf "certificate: %s (mode %s, %s, %a)@." path
          (Equilibrium.mode_name cert.Equilibrium.cert_mode)
          (Cost.version_name cert.Equilibrium.cert_version)
          pp_evidence_summary cert;
        Format.printf "recorded verdict: %a@." Equilibrium.pp_verdict
          (Equilibrium.certificate_verdict cert);
        match Equilibrium.verify_certificate ~samples cert with
        | Ok () ->
            Format.printf "independent re-check: OK (%d samples/player)@."
              samples;
            `Ok ()
        | Error msg ->
            Format.eprintf "independent re-check FAILED: %s@." msg;
            Obs.Ledger.note_outcome "recheck-failed";
            exit_failed 1)
  in
  let run () version target cert_out swap par samples budget =
    if Sys.file_exists target then verify_artifact target samples
    else
      match Strategy.of_string target with
      | exception Invalid_argument msg -> `Error (false, msg)
      | profile ->
          certify_and_print ~describe:true ~budget version profile cert_out
            swap par
  in
  let info =
    Cmd.info "verify"
      ~doc:
        "Certify a serialized profile (optionally writing a certificate \
         artifact), or independently re-check a certificate file."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ obs_term $ version_term $ target $ cert_out $ swap_flag
        $ parallel_flag $ samples $ budget_term))

(* --- certify: the profile-certification half of verify, with an
   unambiguous positional (never interpreted as a file path) --- *)

let certify_cmd =
  let profile_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROFILE"
          ~doc:"A serialized profile to certify, e.g. \"1,2;0;0\".")
  in
  let cert_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "cert" ] ~docv:"OUT.json"
          ~doc:
            "Write the evidence as a single-line JSON certificate \
             artifact (crash-safe: temp file + atomic rename).  A \
             deadline-degraded certificate carries a $(i,degraded) \
             provenance field and still passes $(b,bbng_cli verify).")
  in
  let run () version profile_str cert_out swap par budget =
    match Strategy.of_string profile_str with
    | exception Invalid_argument msg -> `Error (false, msg)
    | profile -> certify_and_print ~budget version profile cert_out swap par
  in
  let info =
    Cmd.info "certify"
      ~doc:
        "Certify a serialized profile under an optional deadline/work \
         budget; an expired budget yields a degraded certificate (typed \
         partial evidence), never a crash."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ obs_term $ version_term $ profile_arg $ cert_out
        $ swap_flag $ parallel_flag $ budget_term))

(* --- dynamics --- *)

let dynamics_cmd =
  let steps =
    Arg.(value & opt int 10_000 & info [ "max-steps" ] ~docv:"STEPS" ~doc:"Step budget.")
  in
  let rule =
    let parse = function
      | "best" -> Ok Bbng_dynamics.Dynamics.Exact_best
      | "first" -> Ok Bbng_dynamics.Dynamics.First_improving
      | "swap" -> Ok Bbng_dynamics.Dynamics.Best_swap
      | "first-swap" -> Ok Bbng_dynamics.Dynamics.First_swap
      | s -> Error (`Msg (Printf.sprintf "unknown rule %S" s))
    in
    let print ppf r =
      Format.pp_print_string ppf (Bbng_dynamics.Dynamics.rule_name r)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Bbng_dynamics.Dynamics.Exact_best
      & info [ "rule" ] ~docv:"RULE" ~doc:"Move rule: best|first|swap|first-swap.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Show every improving move (routed through the pretty event \
             sink, so it matches --report's JSONL line for line).")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"REPORT.jsonl"
          ~doc:
            "Resume a recorded run: re-apply (and verify) the recorded \
             step prefix, then continue the dynamics from its last \
             consistent state.  Accepts interrupted runs and \
             crash-truncated .partial recordings; version, budgets and \
             rule come from the recording.")
  in
  let finish_run game rule budget steps seed extra_meta start =
    let outcome =
      Bbng_dynamics.Dynamics.run ~max_steps:steps ~budget
        ~meta:(("seed", Obs.Json.Int seed) :: extra_meta)
        game ~schedule:Bbng_dynamics.Schedule.Round_robin ~rule start
    in
    Format.printf "outcome: %s after %d steps@."
      (Bbng_dynamics.Dynamics.outcome_name outcome)
      (Bbng_dynamics.Dynamics.steps outcome);
    report_profile (Game.version game)
      (Bbng_dynamics.Dynamics.final_profile outcome);
    `Ok ()
  in
  let run () version budgets seed steps rule trace resume budget =
    (* --trace is just the pretty sink: the same dynamics.step events a
       --report file receives, rendered for humans on stderr. *)
    if trace then Obs.Sink.add Obs.Sink.Stderr_pretty;
    match resume with
    | Some file -> (
        let events = read_events_or_exit file in
        match Obs.Replay.runs_of_events events with
        | [] ->
            Printf.eprintf "bbng: %s: no recorded dynamics runs\n" file;
            die Obs.Exit_code.input_error
        | runs -> (
            (* the last run is the one a crash truncated *)
            let r = List.nth runs (List.length runs - 1) in
            match Bbng_dynamics.Replay.resume_state r with
            | Error d ->
                Printf.eprintf
                  "bbng: %s: recorded prefix diverges at step %d: %s\n" file
                  d.Bbng_dynamics.Replay.at_step d.Bbng_dynamics.Replay.reason;
                die Obs.Exit_code.input_error
            | Ok (game, profile, done_steps) ->
                let rule =
                  match
                    Option.bind r.Obs.Replay.rule
                      Bbng_dynamics.Dynamics.rule_of_name
                  with
                  | Some recorded -> recorded
                  | None -> rule
                in
                Format.printf "resumed: %s at step %d, profile %s@." file
                  done_steps
                  (Strategy.to_string profile);
                finish_run game rule budget steps seed
                  [
                    ("resumed_from", Obs.Json.Str file);
                    ("resumed_at_step", Obs.Json.Int done_steps);
                  ]
                  profile))
    | None -> (
        match budgets with
        | None -> `Error (true, "either --budgets or --resume is required")
        | Some budgets ->
            let game = Game.make version budgets in
            let start = Strategy.random (Random.State.make [| seed |]) budgets in
            Format.printf "start: %s (diameter %d)@."
              (Strategy.to_string start)
              (Game.social_cost game start);
            finish_run game rule budget steps seed [] start)
  in
  let info =
    Cmd.info "dynamics"
      ~doc:
        "Run best-response dynamics from a random start, or resume a \
         recorded run."
  in
  Cmd.v info
    Term.(
      ret
        (const run $ obs_term $ version_term $ budgets_opt_term $ seed_term
        $ steps $ rule $ trace $ resume $ budget_term))

(* --- opt --- *)

let opt_cmd =
  let run () budgets =
    let lo, hi = Poa.opt_diameter_bounds budgets in
    Format.printf "instance: %a (%s)@." Budget.pp budgets
      (Budget.class_name (Budget.classify budgets));
    Format.printf "OPT diameter bounds: [%d, %d]@." lo hi;
    (match Poa.opt_diameter_exact ~max_profiles:500_000 budgets with
    | Some opt -> Format.printf "OPT diameter exact:  %d@." opt
    | None -> Format.printf "OPT diameter exact:  (instance too large)@.");
    let witness = Poa.canonical_low_diameter_realization budgets in
    Format.printf "witness realization: %s@." (Strategy.to_string witness)
  in
  let info = Cmd.info "opt" ~doc:"Minimum diameter over realizations of an instance." in
  Cmd.v info Term.(const run $ obs_term $ budgets_term)

(* --- kcenter (Theorem 2.1 in action) --- *)

let kcenter_cmd =
  let n = Arg.(value & opt int 10 & info [ "n" ] ~docv:"N" ~doc:"Vertices.") in
  let p = Arg.(value & opt float 0.3 & info [ "p" ] ~docv:"P" ~doc:"Edge probability.") in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc:"Centers.") in
  let graph_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "graph" ] ~docv:"FILE"
          ~doc:
            "Read the instance from an edge-list file (header \"graph N\", \
             one \"u v\" edge per line, # comments) instead of sampling \
             G(n,p); see $(b,bbng_cli export -f text).")
  in
  let load_graph file =
    let text =
      match open_in file with
      | exception Sys_error e ->
          Printf.eprintf "bbng: cannot read graph file: %s\n" e;
          die Obs.Exit_code.io_error
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Bbng_graph.Serialize.Undirected_io.of_text text with
    | exception Invalid_argument msg ->
        (* taxonomy: malformed input names the file, exits 2 — never a
           backtrace *)
        Printf.eprintf "bbng: %s: malformed graph file: %s\n" file msg;
        die Obs.Exit_code.input_error
    | g -> g
  in
  let run () n p k seed graph_file budget =
    let g =
      match graph_file with
      | Some file -> load_graph file
      | None ->
          Bbng_graph.Generators.random_connected_gnp
            (Random.State.make [| seed |])
            ~n ~p
    in
    Format.printf "graph: %a@." Bbng_graph.Undirected.pp g;
    let show tag (s : Bbng_solvers.K_center.solution) =
      Format.printf "%s: radius %d, centers {%s}@." tag
        s.Bbng_solvers.K_center.radius
        (String.concat ","
           (List.map string_of_int (Array.to_list s.Bbng_solvers.K_center.centers)))
    in
    match Bbng_solvers.K_center.exact_within ~budget g ~k with
    | Obs.Budgeted.Exhausted ->
        Printf.eprintf
          "bbng: k-center budget exhausted before any candidate was priced\n";
        die Obs.Exit_code.exhausted
    | Obs.Budgeted.Degraded s ->
        show "degraded solver   " s;
        Format.printf
          "(budget expired: radius %d is an upper bound, not proven optimal)@."
          s.Bbng_solvers.K_center.radius
    | Obs.Budgeted.Complete direct ->
        let via = Bbng_solvers.Reduction.solve_center_via_game g ~k in
        show "direct solver     " direct;
        show "via best response " via;
        Format.printf "agreement (Theorem 2.1): %b@."
          (direct.Bbng_solvers.K_center.radius = via.Bbng_solvers.K_center.radius)
  in
  let info =
    Cmd.info "kcenter" ~doc:"Solve k-center through the Theorem 2.1 reduction."
  in
  Cmd.v info
    Term.(const run $ obs_term $ n $ p $ k $ seed_term $ graph_file $ budget_term)

(* --- fip: improvement-graph analysis --- *)

let fip_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit the improvement graph as Graphviz DOT.")
  in
  let run () version budgets dot =
    let module Ig = Bbng_dynamics.Improvement_graph in
    let profiles = Equilibrium.count_profiles budgets in
    if profiles > 100_000 then
      Format.printf "instance has %d profiles; the exact improvement graph is for small instances@." profiles
    else begin
      let game = Game.make version budgets in
      let t = Ig.build game in
      if dot then print_string (Ig.to_dot t)
      else begin
        Format.printf "profiles: %d, improving arcs: %d@."
          (Array.length t.Ig.profiles) (List.length t.Ig.arcs);
        Format.printf "sinks (Nash equilibria): %d@." (List.length t.Ig.sinks);
        if t.Ig.has_cycle then
          Format.printf "improvement graph HAS A CYCLE: better-response dynamics can loop@."
        else begin
          Format.printf
            "acyclic: the finite improvement property holds (worst improving path: %d steps)@."
            t.Ig.longest_path_lower_bound;
          match Ig.potential t with
          | Some phi ->
              let maxp = Array.fold_left max 0 phi in
              Format.printf "ordinal potential extracted (range 0..%d)@." maxp
          | None -> ()
        end
      end
    end
  in
  let info =
    Cmd.info "fip"
      ~doc:"Build the exact improvement graph of a small instance (Section 8)."
  in
  Cmd.v info Term.(const run $ obs_term $ version_term $ budgets_term $ dot)

(* --- census --- *)

let census_cmd =
  let module Census = Bbng_analysis.Census in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE.jsonl"
          ~doc:
            "Run the sharded, checkpointed census: each completed shard \
             appends a digest-stamped row to $(docv).partial, and the \
             complete census commits $(docv) atomically.  A killed or \
             deadline-expired run resumes with $(b,--resume).")
  in
  let resume_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE[.partial]"
          ~doc:
            "Reload a census checkpoint with the tolerant codec (torn or \
             alien lines are skipped and counted), recompute only the \
             missing shards, and commit the final artifact.  The instance \
             and shard size come from the recorded plan row, so $(b,-b) is \
             not needed.")
  in
  let worker =
    Arg.(
      value & flag
      & info [ "worker" ]
          ~doc:
            "Claim shards cooperatively from $(b,--out)'s checkpoint via \
             appended claim rows, so several OS processes can drain one \
             census; claims left by dead workers go stale and are \
             reclaimed.  Whichever worker finishes last commits the final \
             artifact.")
  in
  let owner =
    Arg.(
      value
      & opt (some string) None
      & info [ "owner" ] ~docv:"NAME"
          ~doc:"Worker name recorded in claim rows (default pid-<pid>).")
  in
  let shard_size =
    Arg.(
      value
      & opt (some int) None
      & info [ "shard-size" ] ~docv:"N"
          ~doc:
            "Profiles per shard (default: about a 64th of the space, capped \
             at 4096).  Recorded in the plan row; a resumed run keeps the \
             original partitioning.")
  in
  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"K"
          ~doc:"Domains to scan shards on (default: cores - 1).")
  in
  let limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit" ] ~docv:"N"
          ~doc:"Stop after N equilibria (in-memory scan only).")
  in
  let report_outcome ?(skipped = 0) outcome =
    if skipped > 0 then
      Format.printf "checkpoint: skipped %d torn/alien line%s@." skipped
        (if skipped = 1 then "" else "s");
    let census =
      match outcome with
      | Census.Complete c -> c
      | Census.Partial { census; _ } -> census
    in
    Format.printf "%a@." Census.pp_outcome outcome;
    (match Census.price_of_anarchy census with
    | Some r when census.Census.scanned_profiles = census.Census.total_profiles
      ->
        Format.printf "exact PoA: %a@." Poa.pp_ratio r
    | Some _ | None -> ());
    List.iteri
      (fun i (p, count) ->
        Format.printf "class %d representative: %s (diameter %d, x%d)@." i
          (Strategy.to_string p)
          (Game.social_cost census.Census.game p)
          count)
      census.Census.iso_class_counts;
    Obs.Ledger.add_metric "census.profiles"
      (Obs.Json.Int census.Census.total_profiles);
    Obs.Ledger.add_metric "census.scanned"
      (Obs.Json.Int census.Census.scanned_profiles);
    Obs.Ledger.add_metric "census.equilibria"
      (Obs.Json.Int census.Census.equilibria);
    Obs.Ledger.add_metric "census.iso_classes"
      (Obs.Json.Int (List.length census.Census.iso_classes));
    match outcome with
    | Census.Complete _ -> Obs.Ledger.note_outcome "complete"
    | Census.Partial _ ->
        Obs.Ledger.note_outcome "partial";
        Format.printf "resume with: bbng_cli census --resume FILE[.partial]@.";
        (* clean exit, but the answer is "incomplete": scripts must be
           able to tell a resumable stop from a finished census *)
        exit_failed Obs.Exit_code.exhausted
  in
  let run () version budgets out resume worker owner shard_size domains limit
      budget =
    match resume with
    | Some path -> (
        match Census.resume ?domains ~budget path with
        | Ok (outcome, skipped) -> report_outcome ~skipped outcome
        | Error msg ->
            Format.eprintf "census: %s@." msg;
            die Obs.Exit_code.input_error)
    | None -> (
        if worker then
          match out with
          | None ->
              Format.eprintf "census: --worker needs --out FILE.jsonl@.";
              die Obs.Exit_code.cli_error
          | Some path -> (
              let seed = Option.map (Game.make version) budgets in
              match Census.work ~budget ?owner ?shard_size ?seed path with
              | Ok outcome -> report_outcome outcome
              | Error msg ->
                  Format.eprintf "census: %s@." msg;
                  die Obs.Exit_code.input_error)
        else
          let budgets =
            match budgets with
            | Some b -> b
            | None ->
                Format.eprintf
                  "census: -b BUDGETS is required (unless --resume)@.";
                die Obs.Exit_code.cli_error
          in
          let game = Game.make version budgets in
          match out with
          | Some path -> (
              match
                Census.run_sharded ?domains ?shard_size ~budget
                  ~checkpoint:path game
              with
              | outcome -> report_outcome outcome
              | exception Invalid_argument msg ->
                  Format.eprintf "census: %s@." msg;
                  die Obs.Exit_code.input_error)
          | None ->
              let profiles = Equilibrium.count_profiles budgets in
              if profiles > 200_000 then
                Format.printf
                  "instance has %d profiles; run the sharded census with \
                   --out FILE.jsonl (checkpointed, resumable, parallel)@."
                  profiles
              else report_outcome (Census.run ?limit ~budget game))
  in
  let info =
    Cmd.info "census"
      ~doc:
        "Enumerate and classify every Nash equilibrium of an instance: \
         in-memory for small spaces, sharded + checkpointed + resumable \
         with --out/--resume, cooperatively multi-process with --worker."
  in
  Cmd.v info
    Term.(
      const run $ obs_term $ version_term $ budgets_opt_term $ out
      $ resume_file $ worker $ owner $ shard_size $ domains $ limit
      $ budget_term)

(* --- export --- *)

let export_cmd =
  let profile =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROFILE" ~doc:"Serialized profile, e.g. \"1,2;0;0\".")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("text", `Text); ("undirected-dot", `Udot) ]) `Dot
      & info [ "format"; "f" ] ~docv:"FMT" ~doc:"Output: dot, text, or undirected-dot.")
  in
  let run () profile_str format =
    match Strategy.of_string profile_str with
    | exception Invalid_argument msg -> `Error (false, msg)
    | profile ->
        let g = Strategy.realize profile in
        let out =
          match format with
          | `Dot -> Bbng_graph.Serialize.Digraph_io.to_dot g
          | `Text -> Bbng_graph.Serialize.Digraph_io.to_text g
          | `Udot ->
              Bbng_graph.Serialize.Undirected_io.to_dot (Strategy.underlying profile)
        in
        print_string out;
        `Ok ()
  in
  let info =
    Cmd.info "export" ~doc:"Export a profile's realization as DOT or edge-list text."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ profile $ format))

(* --- report: offline consumers of recorded JSONL runs --- *)

let report_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE.jsonl"
          ~doc:"A --report JSONL stream; '-' reads stdin.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "to-chrome-trace" ] ~docv:"OUT.json"
          ~doc:
            "Convert the event stream to Chrome trace-event JSON \
             (openable in Perfetto or chrome://tracing); '-' writes to \
             stdout.")
  in
  let summarize =
    Arg.(
      value & flag
      & info [ "summarize" ]
          ~doc:
            "Pretty-print the recorded run (event tally, outcomes, \
             run.summary) without re-running it.  This is the default \
             when --to-chrome-trace is absent.")
  in
  let run () input chrome summarize =
    let input = resolve_recording input in
    let events = read_events_or_exit input in
    if events = [] then begin
      Printf.eprintf "bbng: no events in %s\n" input;
      die Obs.Exit_code.input_error
    end;
    (match chrome with
    | None -> ()
    | Some out ->
        let trace = Obs.Trace_export.to_chrome events in
        let write oc =
          output_string oc (Obs.Json.to_string trace);
          output_char oc '\n'
        in
        if out = "-" then begin
          write stdout;
          flush stdout
        end
        else begin
          (match Obs.Atomic_io.write_file out write with
          | () -> ()
          | exception Sys_error e ->
              Printf.eprintf "bbng: cannot write output: %s\n" e;
              die Obs.Exit_code.io_error);
          Printf.eprintf "wrote %s (%d events)\n" out (List.length events)
        end);
    if summarize || chrome = None then begin
      Obs.Trace_export.summarize events stdout;
      (* the digest of the bytes just summarized — the same value the
         producing run stamped into its ledger row, so this line joins
         the summary to `bbng_cli runs show` output *)
      if input <> "-" then
        match Digest.file input with
        | d -> Printf.printf "report digest: %s (%s)\n" (Digest.to_hex d) input
        | exception Sys_error _ -> ()
    end;
    `Ok ()
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Summarize a recorded --report JSONL run or export it as a \
         Chrome trace."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ input $ chrome $ summarize))

(* --- flame: offline folded stacks from a recorded run --- *)

let flame_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REPORT.jsonl[.partial]"
          ~doc:
            "A --report JSONL recording (final or the .partial prefix of \
             an interrupted run; torn trailing lines are skipped); '-' \
             reads stdin.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"OUT.folded"
          ~doc:
            "Write the folded stacks to $(docv) (atomic write) instead of \
             stdout.")
  in
  let alloc =
    Arg.(
      value & flag
      & info [ "alloc" ]
          ~doc:
            "Emit self minor-words (allocation) values instead of \
             self-time nanoseconds.")
  in
  let run () input out alloc =
    let events = read_events_or_exit input in
    (* re-nest the recorded span closes into per-domain call paths —
       the same attribution a live --profile run accumulates *)
    let snap = Obs.Profile.of_events events in
    if snap = [] then begin
      Printf.eprintf "bbng: no span events in %s (was it recorded with --report?)\n"
        input;
      die Obs.Exit_code.input_error
    end;
    let flavor = if alloc then Obs.Profile.Minor_words else Obs.Profile.Wall_ns in
    let lines = Obs.Profile.folded_lines flavor snap in
    (match out with
    | None ->
        List.iter print_endline lines;
        flush stdout
    | Some path ->
        (match
           Obs.Atomic_io.write_file path (fun oc ->
               List.iter
                 (fun l ->
                   output_string oc l;
                   output_char oc '\n')
                 lines)
         with
        | () -> ()
        | exception Sys_error e ->
            Printf.eprintf "bbng: cannot write output: %s\n" e;
            die Obs.Exit_code.io_error);
        Printf.eprintf "wrote %s (%d stacks)\n" path (List.length lines));
    `Ok ()
  in
  let info =
    Cmd.info "flame"
      ~doc:
        "Reconstruct flamegraph.pl/speedscope folded stacks (self-time, \
         or self-allocation with --alloc) from a recorded --report run, \
         per recording domain, merged."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ input $ out $ alloc))

(* --- replay: re-apply a recorded dynamics run and verify it --- *)

let replay_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REPORT.jsonl"
          ~doc:
            "A --report JSONL flight recording of one or more dynamics \
             runs; '-' reads stdin.")
  in
  let no_stable =
    Arg.(
      value & flag
      & info [ "no-check-stable" ]
          ~doc:
            "Skip re-verifying that converged outcomes are stable under \
             the recorded rule (the expensive part on exact-rule runs).")
  in
  let run () input no_stable =
    let events = read_events_or_exit input in
    match Obs.Replay.runs_of_events events with
    | [] ->
        Printf.eprintf "bbng: no recorded dynamics runs in %s\n" input;
        die Obs.Exit_code.input_error
    | runs ->
        let check_stable = not no_stable in
        let failures =
          List.mapi
            (fun i r ->
              match Bbng_dynamics.Replay.check_run ~check_stable r with
              | Ok summary ->
                  Format.printf "run %d: %s@." i summary;
                  false
              | Error d ->
                  Format.eprintf "run %d: DIVERGED at step %d: %s@." i
                    d.Bbng_dynamics.Replay.at_step
                    d.Bbng_dynamics.Replay.reason;
                  true)
            runs
        in
        if List.exists Fun.id failures then begin
          Obs.Ledger.note_outcome "diverged";
          exit_failed 1
        end
        else `Ok ()
  in
  let info =
    Cmd.info "replay"
      ~doc:
        "Re-apply a recorded dynamics run move by move, verifying every \
         recorded cost and the final outcome; exits non-zero at the \
         first divergence."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ input $ no_stable))

(* --- top: refreshing live view over a (possibly in-flight) recording --- *)

let top_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN.jsonl[.partial]"
          ~doc:
            "A --report recording to watch — final, or the .partial of a \
             run still in flight.  Either name works: the viewer follows \
             the stream across its .partial → final commit rename.")
  in
  let interval =
    Arg.(
      value & opt float 500.
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Polling/refresh interval (default 500).")
  in
  let frames =
    Arg.(
      value
      & opt (some int) None
      & info [ "frames" ] ~docv:"N"
          ~doc:"Render at most $(docv) frames, then exit (for scripting).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ] ~doc:"Render a single frame and exit (--frames 1).")
  in
  let no_clear =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:
            "Do not clear the terminal between frames — frames append, \
             which keeps the output a plain readable log under redirection.")
  in
  let sibling = sibling_recording in
  let run () input interval frames once no_clear =
    let path =
      if Sys.file_exists input then input
      else if Sys.file_exists (sibling input) then sibling input
      else begin
        Printf.eprintf "bbng: no recording at %s (or %s)\n" input
          (sibling input);
        die Obs.Exit_code.input_error
      end
    in
    let limit = if once then Some 1 else frames in
    let st = Obs.Live_view.create_state () in
    let tail = Obs.Live_view.open_tail path in
    let current = ref path in
    let rec loop frame =
      (* a writer that exits cleanly commit-renames .partial over the
         final name; the bytes are identical, so just retarget the tail *)
      if
        (not (Sys.file_exists !current))
        && Sys.file_exists (sibling !current)
      then begin
        current := sibling !current;
        Obs.Live_view.retarget tail !current
      end;
      ignore (Obs.Live_view.poll tail st);
      if not no_clear then print_string "\027[2J\027[H";
      print_string (Obs.Live_view.render st ~source:!current);
      flush stdout;
      let stop =
        Obs.Live_view.finished st
        || (match limit with Some l -> frame + 1 >= l | None -> false)
      in
      if not stop then begin
        Unix.sleepf (Float.max 0.01 (interval /. 1e3));
        loop (frame + 1)
      end
    in
    loop 0;
    `Ok ()
  in
  let info =
    Cmd.info "top"
      ~doc:
        "Tail a --report recording — live, via its .partial — and render \
         a refreshing view of the run: current phase, heartbeat rate and \
         ETA, top counters, span latency quantiles.  Exits when the \
         recording ends with run.summary (or after --frames N)."
  in
  Cmd.v info
    Term.(
      ret (const run $ obs_term $ input $ interval $ frames $ once $ no_clear))

(* --- runs: query and maintain the append-only run ledger --- *)

let runs_ledger_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "ledger" ] ~docv:"FILE"
        ~doc:
          "Ledger file to operate on.  Default: the $(b,BBNG_LEDGER) \
           environment variable, else BBNG_ledger.jsonl in the working \
           directory.")

let the_ledger = function
  | Some f -> f
  | None -> (
      match Obs.Ledger.resolve_file () with
      | Some f -> f
      | None -> Obs.Ledger.default_file)

let load_rows_or_note ledger =
  let rows, skipped = Obs.Ledger.load ~file:ledger () in
  if skipped > 0 then
    Printf.eprintf
      "bbng: %s: skipped %d torn/alien line%s (bbng_cli runs rebuild recovers)\n"
      ledger skipped
      (if skipped = 1 then "" else "s");
  rows

(* RUN selectors: a run id, a unique id prefix, or @N / @-N indices
   into ledger order (@-1 = most recent row). *)
let find_row rows spec =
  let n = List.length rows in
  if String.length spec > 1 && spec.[0] = '@' then
    match int_of_string_opt (String.sub spec 1 (String.length spec - 1)) with
    | Some i ->
        let i = if i < 0 then n + i else i in
        if i >= 0 && i < n then Ok (List.nth rows i)
        else
          Error (Printf.sprintf "index %s out of range (%d rows)" spec n)
    | None -> Error (Printf.sprintf "bad run selector %S" spec)
  else
    let prefixed r =
      let id = r.Obs.Ledger.run_id in
      String.length id >= String.length spec
      && String.sub id 0 (String.length spec) = spec
    in
    match List.filter (fun r -> r.Obs.Ledger.run_id = spec) rows with
    | r :: _ -> Ok r
    | [] -> (
        match List.filter prefixed rows with
        | [ r ] -> Ok r
        | [] -> Error (Printf.sprintf "no run matches %S" spec)
        | _ :: _ -> Error (Printf.sprintf "ambiguous run prefix %S" spec))

let find_row_or_exit rows spec =
  match find_row rows spec with
  | Ok r -> r
  | Error msg ->
      Printf.eprintf "bbng: %s\n" msg;
      die Obs.Exit_code.input_error

let runs_list_cmd =
  let sub =
    Arg.(
      value
      & opt (some string) None
      & info [ "sub" ] ~docv:"NAME" ~doc:"Only runs of this subcommand.")
  in
  let outcome =
    Arg.(
      value
      & opt (some string) None
      & info [ "outcome" ] ~docv:"NAME"
          ~doc:
            "Only runs with this outcome (ok, error, converged, \
             equilibrium, refuted, ...).")
  in
  let since =
    Arg.(
      value
      & opt (some string) None
      & info [ "since" ] ~docv:"TS"
          ~doc:
            "Only runs at or after this UTC timestamp prefix \
             (lexicographic, e.g. 2026-08-08 or 2026-08-08T12).")
  in
  let porcelain =
    Arg.(
      value & flag
      & info [ "porcelain" ]
          ~doc:
            "Tab-separated run_id/ts/subcommand/outcome/exit_code, one \
             row per line, no header or footer (for scripts).")
  in
  let run () ledger sub outcome since porcelain =
    let ledger = the_ledger ledger in
    let rows = load_rows_or_note ledger in
    let keep r =
      (match sub with None -> true | Some s -> r.Obs.Ledger.subcommand = s)
      && (match outcome with
         | None -> true
         | Some s -> r.Obs.Ledger.outcome = s)
      && match since with None -> true | Some s -> r.Obs.Ledger.ts >= s
    in
    let rows = List.filter keep rows in
    if porcelain then
      List.iter
        (fun r ->
          Printf.printf "%s\t%s\t%s\t%s\t%d\n" r.Obs.Ledger.run_id
            r.Obs.Ledger.ts r.Obs.Ledger.subcommand r.Obs.Ledger.outcome
            r.Obs.Ledger.exit_code)
        rows
    else begin
      if rows <> [] then begin
        Printf.printf "%-34s %-20s %-12s %-14s %4s %3s\n" "RUN" "TS"
          "SUBCOMMAND" "OUTCOME" "EXIT" "ART";
        List.iter
          (fun r ->
            Printf.printf "%-34s %-20s %-12s %-14s %4d %3d\n"
              r.Obs.Ledger.run_id r.Obs.Ledger.ts r.Obs.Ledger.subcommand
              r.Obs.Ledger.outcome r.Obs.Ledger.exit_code
              (List.length r.Obs.Ledger.artifacts))
          rows
      end;
      Printf.printf "%d run%s in %s\n" (List.length rows)
        (if List.length rows = 1 then "" else "s")
        ledger
    end;
    `Ok ()
  in
  let info =
    Cmd.info "list"
      ~doc:"List indexed runs, filterable by subcommand/outcome/time."
  in
  Cmd.v info
    Term.(ret (const run $ obs_term $ runs_ledger_term $ sub $ outcome $ since $ porcelain))

let runs_show_cmd =
  let spec =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"RUN" ~doc:"Run id, unique id prefix, or @N / @-1.")
  in
  let run () ledger spec =
    let ledger = the_ledger ledger in
    let rows = load_rows_or_note ledger in
    let r = find_row_or_exit rows spec in
    let open Obs.Ledger in
    Printf.printf "run:        %s\n" r.run_id;
    Printf.printf "ts:         %s\n" r.ts;
    Printf.printf "tool:       %s %s\n" r.tool r.subcommand;
    if r.argv <> [] then
      Printf.printf "argv:       %s\n" (String.concat " " r.argv);
    Printf.printf "outcome:    %s (exit %s)\n" r.outcome
      (if r.exit_code < 0 then "?" else string_of_int r.exit_code);
    (match (r.report, r.report_digest) with
    | Some p, Some d -> Printf.printf "report:     %s (digest %s)\n" p d
    | Some p, None -> Printf.printf "report:     %s\n" p
    | None, _ -> ());
    if r.metrics <> [] then begin
      Printf.printf "metrics:\n";
      List.iter
        (fun (k, v) -> Printf.printf "  %-32s %s\n" k (Obs.Json.to_string v))
        r.metrics
    end;
    if r.counters <> [] then begin
      Printf.printf "counters:\n";
      List.iter
        (fun (k, v) -> Printf.printf "  %-32s %d\n" k v)
        (List.stable_sort (fun (_, a) (_, b) -> compare b a) r.counters)
    end;
    if r.artifacts <> [] then begin
      Printf.printf "artifacts:\n";
      List.iter
        (fun p ->
          match Unix.stat p with
          | st -> Printf.printf "  %-40s %d bytes\n" p st.Unix.st_size
          | exception Unix.Unix_error _ ->
              Printf.printf "  %-40s MISSING\n" p)
        r.artifacts
    end;
    if r.extra <> [] then
      Printf.printf "extra:      %s\n"
        (Obs.Json.to_string (Obs.Json.Obj r.extra));
    `Ok ()
  in
  let info =
    Cmd.info "show" ~doc:"Show one run's full ledger row and artifact inventory."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ runs_ledger_term $ spec))

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let runs_diff_cmd =
  let a_spec =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"A" ~doc:"Baseline run (id, prefix, or @N).")
  in
  let b_spec =
    Arg.(
      required & pos 1 (some string) None
      & info [] ~docv:"B" ~doc:"Candidate run (id, prefix, or @N).")
  in
  let threshold =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:
            "Regression threshold in percent (default: \
             $(b,BBNG_BENCH_DIFF_THRESHOLD) or 25, the same knob bench \
             --diff uses).")
  in
  let run () ledger threshold a_spec b_spec =
    let ledger = the_ledger ledger in
    let rows = load_rows_or_note ledger in
    let a = find_row_or_exit rows a_spec in
    let b = find_row_or_exit rows b_spec in
    let pct =
      match threshold with
      | Some t -> t
      | None -> (
          match
            Option.bind
              (Sys.getenv_opt "BBNG_BENCH_DIFF_THRESHOLD")
              float_of_string_opt
          with
          | Some t when t > 0. -> t
          | Some _ | None -> 25.)
    in
    Printf.printf "diff %s (%s %s)\n  -> %s (%s %s)  [threshold %g%%]\n"
      a.Obs.Ledger.run_id a.Obs.Ledger.subcommand a.Obs.Ledger.outcome
      b.Obs.Ledger.run_id b.Obs.Ledger.subcommand b.Obs.Ledger.outcome pct;
    (* the same gate shape as bench --diff/--trend (PR 7): a one-point
       history makes Robust fall back to the percentage term, and the
       ns/words floors silence sub-noise absolute wiggles.  A words
       metric reading exactly 0 on one side is a collapsed minor-words
       OLS fit (the true allocation of a sub-2k-word workload on a
       loaded machine), so zero-sided words deltas get the wider
       fit-collapse floor — the delta is unverifiable below it *)
    let floor_for k va vb =
      if contains_substring k "words" then
        if va = 0. || vb = 0. then 2048. else 64.
      else if contains_substring k "ns" then 100.
      else 0.
    in
    let ma = Obs.Ledger.numeric_metrics a in
    let mb = Obs.Ledger.numeric_metrics b in
    let regressions = ref 0 in
    List.iter
      (fun (k, vb) ->
        match List.assoc_opt k ma with
        | None -> Printf.printf "  new      %-32s %g\n" k vb
        | Some va ->
            let delta_pct =
              if va = 0. then if vb = 0. then 0. else infinity
              else 100. *. (vb -. va) /. va
            in
            let tag =
              match
                Bbng_analysis.Robust.classify ~threshold_pct:pct
                  ~floor:(floor_for k va vb) ~history:[ va ] vb
              with
              | Some Bbng_analysis.Robust.Regressed ->
                  incr regressions;
                  "REGRESSED"
              | Some Bbng_analysis.Robust.Improved -> "improved"
              | Some Bbng_analysis.Robust.Steady | None -> "steady"
            in
            Printf.printf "  %-8s %-32s %g -> %g (%+.1f%%)\n" tag k va vb
              delta_pct)
      mb;
    List.iter
      (fun (k, va) ->
        if not (List.mem_assoc k mb) then
          Printf.printf "  gone     %-32s %g\n" k va)
      ma;
    (* counter deltas are attribution context (what did more work), not
       gated: loud ones only, biggest relative change first *)
    let counter_deltas =
      List.filter_map
        (fun (k, vb) ->
          match List.assoc_opt k a.Obs.Ledger.counters with
          | Some va when va <> vb && va > 0 ->
              let d = 100. *. float_of_int (vb - va) /. float_of_int va in
              if Float.abs d >= pct then Some (k, va, vb, d) else None
          | _ -> None)
        b.Obs.Ledger.counters
    in
    let counter_deltas =
      List.stable_sort
        (fun (_, _, _, x) (_, _, _, y) ->
          compare (Float.abs y) (Float.abs x))
        counter_deltas
    in
    if counter_deltas <> [] then begin
      Printf.printf "counters (|delta| >= %g%%, context only):\n" pct;
      List.iteri
        (fun i (k, va, vb, d) ->
          if i < 12 then
            Printf.printf "  %-41s %d -> %d (%+.1f%%)\n" k va vb d)
        counter_deltas
    end;
    if !regressions > 0 then begin
      Printf.printf "%d metric%s regressed\n" !regressions
        (if !regressions = 1 then "" else "s");
      exit_failed 1
    end
    else begin
      Printf.printf "no metric regressions\n";
      `Ok ()
    end
  in
  let info =
    Cmd.info "diff"
      ~doc:
        "Compare two runs' metrics and counters; exits non-zero when a \
         metric regressed past the Robust threshold."
  in
  Cmd.v info
    Term.(
      ret (const run $ obs_term $ runs_ledger_term $ threshold $ a_spec $ b_spec))

let runs_gc_cmd =
  let prune =
    Arg.(
      value & flag
      & info [ "prune" ]
          ~doc:
            "Actually rewrite the ledger with dangling artifact \
             references removed (atomic rewrite; torn lines are dropped \
             too).  Default is a dry run.")
  in
  let run () ledger prune =
    let ledger = the_ledger ledger in
    let rows = load_rows_or_note ledger in
    let dangling = ref 0 in
    let cleaned =
      List.map
        (fun r ->
          let live, dead =
            (* .partial-aware: resumable checkpoint state is never
               pruned as dangling *)
            List.partition Obs.Ledger.artifact_live r.Obs.Ledger.artifacts
          in
          List.iter
            (fun p ->
              incr dangling;
              Printf.printf "dangling: %s (%s)\n" p r.Obs.Ledger.run_id)
            dead;
          { r with Obs.Ledger.artifacts = live })
        rows
    in
    if !dangling = 0 then Printf.printf "no dangling artifacts\n"
    else if prune then begin
      Obs.Atomic_io.write_file ledger (fun oc ->
          List.iter
            (fun r ->
              output_string oc (Obs.Json.to_string (Obs.Ledger.row_to_json r));
              output_char oc '\n')
            cleaned);
      Printf.printf "pruned %d dangling reference%s from %s\n" !dangling
        (if !dangling = 1 then "" else "s")
        ledger
    end
    else
      Printf.printf "%d dangling reference%s (re-run with --prune to drop)\n"
        !dangling
        (if !dangling = 1 then "" else "s");
    `Ok ()
  in
  let info =
    Cmd.info "gc" ~doc:"Find (and with --prune, drop) dangling artifact references."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ runs_ledger_term $ prune))

let runs_rebuild_cmd =
  let dirs =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DIR"
          ~doc:
            "Directories to scan for *.jsonl / *.jsonl.partial recordings \
             (default: the working directory, plus artifacts/ if present).")
  in
  let run () ledger dirs =
    let ledger = the_ledger ledger in
    let dirs =
      if dirs <> [] then dirs
      else
        "."
        ::
        (if Sys.file_exists "artifacts" && Sys.is_directory "artifacts" then
           [ "artifacts" ]
         else [])
    in
    let kept, recovered, dropped =
      Obs.Ledger.rebuild ~file:ledger ~dirs ()
    in
    Printf.printf
      "rebuilt %s: kept %d existing row%s, recovered %d run%s from \
       artifacts, dropped %d torn line%s\n"
      ledger kept
      (if kept = 1 then "" else "s")
      recovered
      (if recovered = 1 then "" else "s")
      dropped
      (if dropped = 1 then "" else "s");
    `Ok ()
  in
  let info =
    Cmd.info "rebuild"
      ~doc:
        "Re-derive the ledger from recorded artifacts: merge parseable \
         rows with runs recovered from *.jsonl recordings, then rewrite \
         atomically.  A lost or torn index is never fatal."
  in
  Cmd.v info Term.(ret (const run $ obs_term $ runs_ledger_term $ dirs))

let runs_cmd =
  let info =
    Cmd.info "runs"
      ~doc:
        "Query and maintain the append-only run ledger (BBNG_ledger.jsonl) \
         every work subcommand and bench run appends to."
  in
  Cmd.group info
    [ runs_list_cmd; runs_show_cmd; runs_diff_cmd; runs_gc_cmd;
      runs_rebuild_cmd ]

let main_cmd =
  let info =
    Cmd.info "bbng" ~version:"1.0.0"
      ~doc:"Bounded budget network creation games (SPAA 2011 reproduction)."
  in
  Cmd.group info
    [ construct_cmd; verify_cmd; certify_cmd; dynamics_cmd; opt_cmd;
      kcenter_cmd; census_cmd; export_cmd; fip_cmd; report_cmd; flame_cmd;
      replay_cmd;
      top_cmd; runs_cmd ]

(* Structured failure: every exception class the engine can legitimately
   raise maps to a documented exit code (Exit_code) with a one-line
   message naming the problem; only genuinely unknown exceptions (bugs)
   get a backtrace, under the internal-error code.  [~catch:false] keeps
   cmdliner from swallowing exceptions before we classify them. *)
(* Subcommands that do work get a ledger row; read-only viewers (runs,
   report, flame, top) are not themselves runs and stay out of the
   index. *)
let indexed_subcommands =
  [ "construct"; "verify"; "certify"; "dynamics"; "opt"; "kcenter";
    "census"; "export"; "fip"; "replay" ]

let () =
  (match Obs.Fault.init_from_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "bbng: bad %s spec: %s\n" Obs.Fault.env_var msg;
      exit Obs.Exit_code.cli_error);
  (* registered BEFORE cmdliner evaluation: at_exit runs LIFO, so the
     ledger append fires AFTER obs_term's report-commit hook and can
     digest the committed report bytes *)
  if Array.length Sys.argv > 1 && List.mem Sys.argv.(1) indexed_subcommands
  then begin
    Obs.Ledger.set_context ~tool:"bbng_cli" ~subcommand:Sys.argv.(1);
    at_exit Obs.Ledger.append_current
  end;
  match Cmd.eval ~catch:false main_cmd with
  | 0 -> exit 0
  | code -> die code
  | exception e -> (
      match Obs.Exit_code.of_exn e with
      | Some (code, msg) ->
          Printf.eprintf "bbng: %s\n" msg;
          die code
      | None ->
          Printf.eprintf "bbng: internal error: %s\n%s" (Printexc.to_string e)
            (Printexc.get_backtrace ());
          die Obs.Exit_code.internal_error)
