(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
   recorded output).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- table1 figures   # a selection
     dune exec bench/main.exe -- --smoke          # seconds-long bench sanity pass
     dune exec bench/main.exe -- --validate BENCH_smoke.json
     dune exec bench/main.exe -- --validate-metrics METRICS.prom
     dune exec bench/main.exe -- --csr-oracle CENSUS.jsonl  # CSR vs legacy answers
     dune exec bench/main.exe -- --diff OLD.json NEW.json   # regression gate
     dune exec bench/main.exe -- --trend [HISTORY.jsonl]    # gate vs recorded history
     dune exec bench/main.exe -- --profile OUT.folded perf  # folded stacks of a run
   Known experiment names: table1 figures hardness existence weighted
   connectivity dynamics baselines expansion census extremal ablation
   engines artifacts perf. *)

let experiments =
  [
    ("table1", Exp_table1.run);
    ("figures", Exp_figures.run);
    ("hardness", Exp_hardness.run);
    ("existence", Exp_existence.run);
    ("weighted", Exp_weighted.run);
    ("connectivity", Exp_connectivity.run);
    ("dynamics", Exp_dynamics.run);
    ("baselines", Exp_baselines.run);
    ("expansion", Exp_expansion.run);
    ("census", Exp_census.run);
    ("extremal", Exp_extremal.run);
    ("ablation", Exp_ablation.run);
    ("engines", Exp_engines.run);
    ("artifacts", Exp_artifacts.run);
    ("perf", Perf.run);
  ]

(* Check that a BENCH_*.json report parses and carries a usable ns/run
   figure for every test — this is what keeps report-format regressions
   inside tier-1-adjacent checks (bin/check.sh). *)
let validate file =
  let read_all ic =
    let n = in_channel_length ic in
    really_input_string ic n
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: INVALID — %s\n" file msg;
        exit 1)
      fmt
  in
  let ic = try open_in file with Sys_error e -> fail "%s" e in
  let text = read_all ic in
  close_in ic;
  let module Json = Bbng_obs.Json in
  let json =
    try Json.of_string text with Json.Parse_error e -> fail "parse error: %s" e
  in
  (match Json.member "report" json with
  | Some (Json.Str _) -> ()
  | _ -> fail "missing \"report\" name");
  (match Json.member "results" json with
  | Some (Json.List (_ :: _ as results)) ->
      List.iter
        (fun r ->
          (match (Json.member "name" r, Json.member "ns_per_run" r) with
          | Some (Json.Str _), Some (Json.Float ns) when ns > 0. -> ()
          | Some (Json.Str _), Some (Json.Int ns) when ns > 0 -> ()
          | Some (Json.Str name), _ -> fail "no ns_per_run for %S" name
          | _ -> fail "result entry without a name");
          (* a bad OLS fit is a warning, not invalidity: the figures
             parse fine, but they are too noisy to trust in a diff or
             to let silently pollute the recorded history *)
          (match (Json.member "name" r, Json.member "r_square_time" r) with
          | Some (Json.Str name), Some (Json.Float r2) when r2 < 0.8 ->
              Printf.printf
                "%s: warning: %s r_square_time %.3f < 0.8 (noisy fit)\n" file
                name r2
          | _ -> ()))
        results
  | _ -> fail "missing or empty \"results\"");
  (match Json.member "counters" json with
  | Some (Json.Obj _) -> ()
  | _ -> fail "missing \"counters\" snapshot");
  Printf.printf "%s: ok\n" file

(* Check that a --metrics-out snapshot is a well-formed OpenMetrics
   exposition: families typed and HELP'd before their samples, counter
   samples suffixed and non-negative, histogram buckets cumulative with
   the +Inf bucket equal to _count, and a closing # EOF.  This is the
   out-of-process validator bin/check.sh and bin/fault_smoke.sh point
   at the files a live (or SIGKILLed) run leaves behind. *)
let validate_metrics file =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s: INVALID — %s\n" file msg;
        exit 1)
      fmt
  in
  let text =
    match open_in_bin file with
    | exception Sys_error e -> fail "%s" e
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Bbng_oracle.Openmetrics.validate text with
  | Error msg -> fail "%s" msg
  | Ok families ->
      let samples =
        List.fold_left
          (fun acc f ->
            acc + List.length f.Bbng_oracle.Openmetrics.samples)
          0 families
      in
      Printf.printf "%s: ok (%d metric families, %d samples)\n" file
        (List.length families) samples

let () =
  (* fault probes work in the harness too: BBNG_FAULT can crash any
     experiment at a chosen artifact-write or sink event, which is how
     bin/fault_smoke.sh checks bench crash-safety out of process *)
  (match Bbng_obs.Fault.init_from_env () with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "bench: bad %s spec: %s\n" Bbng_obs.Fault.env_var msg;
      exit 124);
  let profile_out, argv =
    let rec strip acc = function
      | "--profile" :: path :: rest -> (Some path, List.rev_append acc rest)
      | "--profile" :: [] ->
          Printf.eprintf "--profile needs a FILE.folded argument\n";
          exit 2
      | x :: rest -> strip (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    strip [] (Array.to_list Sys.argv)
  in
  (* --profile FILE.folded works on any experiment selection: enable
     call-path attribution now, export folded stacks (wall + alloc
     flavors) at exit — the bench twin of the CLI flag *)
  (match profile_out with
  | None -> ()
  | Some path ->
      Bbng_obs.Span.set_enabled true;
      at_exit (fun () -> Bbng_obs.Profile.write_folded path));
  (match argv with
  | _ :: "--smoke" :: _ ->
      (* smoke is a run worth indexing (check.sh diffs consecutive ones
         via `bbng_cli runs diff`); the validators below are read-only
         viewers and stay out of the ledger *)
      Bbng_obs.Ledger.set_context ~tool:"bench" ~subcommand:"bench:smoke";
      at_exit Bbng_obs.Ledger.append_current;
      Perf.smoke ();
      Bbng_obs.Ledger.note_outcome "ok";
      exit 0
  | _ :: "--validate" :: file :: _ ->
      validate file;
      exit 0
  | _ :: "--validate" :: [] ->
      Printf.eprintf "--validate needs a file argument\n";
      exit 2
  | _ :: "--validate-metrics" :: file :: _ ->
      validate_metrics file;
      exit 0
  | _ :: "--validate-metrics" :: [] ->
      Printf.eprintf "--validate-metrics needs a file argument\n";
      exit 2
  | _ :: "--csr-oracle" :: file :: _ ->
      Csr_oracle.run file;
      exit 0
  | _ :: "--csr-oracle" :: [] ->
      Printf.eprintf "--csr-oracle needs a CENSUS_*.jsonl argument\n";
      exit 2
  | _ :: "--diff" :: old_file :: new_file :: _ ->
      Diff.run old_file new_file;
      exit 0
  | _ :: "--diff" :: _ ->
      Printf.eprintf "--diff needs OLD.json and NEW.json arguments\n";
      exit 2
  | _ :: "--trend" :: rest ->
      (* optional positional: an alternate history file *)
      let file =
        match rest with
        | f :: _ when String.length f > 0 && f.[0] <> '-' -> Some f
        | _ -> None
      in
      Trend.run ?file ();
      exit 0
  | _ -> ());
  let requested =
    match argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  Bbng_obs.Ledger.set_context ~tool:"bench"
    ~subcommand:("bench:" ^ String.concat "+" requested);
  at_exit Bbng_obs.Ledger.append_current;
  let t0 = Unix.gettimeofday () in
  Printf.printf
    "bbng experiment harness — reproduction of \"On a Bounded Budget Network Creation Game\" (SPAA 2011)\n";
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          Bbng_obs.Ledger.note_exit 2;
          exit 2)
    requested;
  Bbng_obs.Ledger.note_outcome "ok";
  Printf.printf "\nTotal harness time: %.1f s\n" (Unix.gettimeofday () -. t0)
