(* Append-only run index: one JSONL line per run, written once at exit
   through Atomic_io.append_line.  The producing side is a process-global
   pending row (context, outcome, exit code, metrics, artifact paths)
   that instrumented layers fill in as the run unfolds; the consuming
   side is a tolerant parser that skips — never raises on — torn lines
   and rows written by newer binaries. *)

let env_var = "BBNG_LEDGER"
let default_file = "BBNG_ledger.jsonl"
let schema_version = 1

let resolve_file () =
  match Sys.getenv_opt env_var with
  | Some "" | Some "off" | Some "none" | Some "0" -> None
  | Some p -> Some p
  | None -> Some default_file

let c_appends = Counter.make "ledger.appends"
let c_skipped = Counter.make "ledger.rows_skipped"

(* --- rows --- *)

type row = {
  run_id : string;
  ts : string;
  tool : string;
  subcommand : string;
  argv : string list;
  outcome : string;
  exit_code : int;
  metrics : (string * Json.t) list;
  counters : (string * int) list;
  artifacts : string list;
  report : string option;
  report_digest : string option;
  extra : (string * Json.t) list;
}

let known_keys =
  [
    "schema"; "run_id"; "ts"; "tool"; "subcommand"; "argv"; "outcome";
    "exit_code"; "metrics"; "counters"; "artifacts"; "report";
    "report_digest";
  ]

let row_to_json r =
  let opt k = function None -> [] | Some v -> [ (k, Json.Str v) ] in
  Json.Obj
    ([
       ("schema", Json.Int schema_version);
       ("run_id", Json.Str r.run_id);
       ("ts", Json.Str r.ts);
       ("tool", Json.Str r.tool);
       ("subcommand", Json.Str r.subcommand);
       ("argv", Json.List (List.map (fun a -> Json.Str a) r.argv));
       ("outcome", Json.Str r.outcome);
       ("exit_code", Json.Int r.exit_code);
       ("metrics", Json.Obj r.metrics);
       ("counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) r.counters));
       ("artifacts", Json.List (List.map (fun a -> Json.Str a) r.artifacts));
     ]
    @ opt "report" r.report
    @ opt "report_digest" r.report_digest
    @ r.extra)

(* Forward-compat contract: a row is anything with a string run_id.
   Known fields of the wrong shape (a newer schema repurposing a key)
   are preserved verbatim in [extra] rather than dropped, so a
   load-and-rewrite by an old binary never loses a newer binary's
   data.  Unknown fields ride along in [extra] the same way. *)
let row_of_json j =
  match j with
  | Json.Obj fields -> (
      match List.assoc_opt "run_id" fields with
      | Some (Json.Str run_id) ->
          let misfit = ref [] in
          let str k d =
            match List.assoc_opt k fields with
            | Some (Json.Str s) -> s
            | Some v ->
                misfit := (k, v) :: !misfit;
                d
            | None -> d
          in
          let int k d =
            match List.assoc_opt k fields with
            | Some (Json.Int i) -> i
            | Some v ->
                misfit := (k, v) :: !misfit;
                d
            | None -> d
          in
          let str_opt k =
            match List.assoc_opt k fields with
            | Some (Json.Str s) -> Some s
            | Some v ->
                misfit := (k, v) :: !misfit;
                None
            | None -> None
          in
          let str_list k =
            match List.assoc_opt k fields with
            | Some (Json.List l) ->
                List.filter_map
                  (function Json.Str s -> Some s | _ -> None)
                  l
            | Some v ->
                misfit := (k, v) :: !misfit;
                []
            | None -> []
          in
          let obj k =
            match List.assoc_opt k fields with
            | Some (Json.Obj o) -> o
            | Some v ->
                misfit := (k, v) :: !misfit;
                []
            | None -> []
          in
          let metrics = obj "metrics" in
          let counters =
            List.filter_map
              (function k, Json.Int v -> Some (k, v) | _ -> None)
              (obj "counters")
          in
          let unknown =
            List.filter (fun (k, _) -> not (List.mem k known_keys)) fields
          in
          (* bound before the record so every misfit is collected first
             (record field evaluation order is unspecified) *)
          let ts = str "ts" "" in
          let tool = str "tool" "?" in
          let subcommand = str "subcommand" "?" in
          let argv = str_list "argv" in
          let outcome = str "outcome" "?" in
          (* -1 = unknown, matching recovered rows: an absent or
             repurposed exit_code must not read as success *)
          let exit_code = int "exit_code" (-1) in
          let artifacts = str_list "artifacts" in
          let report = str_opt "report" in
          let report_digest = str_opt "report_digest" in
          Some
            {
              run_id;
              ts;
              tool;
              subcommand;
              argv;
              outcome;
              exit_code;
              metrics;
              counters;
              artifacts;
              report;
              report_digest;
              extra = unknown @ List.rev !misfit;
            }
      | _ -> None)
  | _ -> None

let numeric_metrics r =
  List.filter_map
    (fun (k, v) ->
      match v with
      | Json.Int i -> Some (k, float_of_int i)
      | Json.Float f -> Some (k, f)
      | _ -> None)
    r.metrics

(* --- reading --- *)

(* A referenced artifact is alive if its committed file exists OR its
   .partial sibling does: a checkpoint mid-campaign (census shards, an
   interrupted recording) is resumable state, not garbage — `runs gc`
   must never prune the row that points at it. *)
let artifact_live path =
  Sys.file_exists path || Sys.file_exists (Atomic_io.partial_path path)

let load ?file () =
  let file =
    match file with Some f -> f | None -> Option.value (resolve_file ()) ~default:default_file
  in
  match open_in file with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      let rows, skipped =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Json.read_lines ic row_of_json)
      in
      Counter.add c_skipped skipped;
      (rows, skipped)

(* --- the pending row of the current process --- *)

let utc_timestamp () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let the_run_id =
  lazy
    (let seed =
       Printf.sprintf "%s|%d|%f"
         (String.concat "\x00" (Array.to_list Sys.argv))
         (Unix.getpid ()) (Unix.gettimeofday ())
     in
     let tag = String.sub (Digest.to_hex (Digest.string seed)) 0 6 in
     let t = Unix.gmtime (Unix.time ()) in
     Printf.sprintf "%04d%02d%02dT%02d%02d%02dZ-%d-%s" (t.Unix.tm_year + 1900)
       (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
       t.Unix.tm_sec (Unix.getpid ()) tag)

let run_id () = Lazy.force the_run_id

let enabled = ref false
let state_tool = ref "bbng"
let state_sub = ref ""
let state_outcome : string option ref = ref None
let state_exit = ref 0
let state_metrics : (string * Json.t) list ref = ref []
let state_artifacts : string list ref = ref []
let state_report : string option ref = ref None
let appended = ref false

let note_artifact path =
  if !enabled && not (List.mem path !state_artifacts) then
    state_artifacts := !state_artifacts @ [ path ]

let set_context ~tool ~subcommand =
  state_tool := tool;
  state_sub := subcommand;
  enabled := true;
  (* from here on, every Atomic_io commit lands in the artifact
     inventory of this run's row *)
  Atomic_io.set_commit_hook note_artifact

let note_report path = if path <> "-" then state_report := Some path
let note_outcome s = state_outcome := Some s
let note_exit c = state_exit := c

let add_metric k v =
  state_metrics := List.remove_assoc k !state_metrics @ [ (k, v) ]

let append_row ?file row =
  match
    match file with Some f -> Some f | None -> resolve_file ()
  with
  | None -> ()
  | Some path -> (
      match Atomic_io.append_line path (Json.to_string (row_to_json row)) with
      | () -> Counter.bump c_appends
      | exception (Sys_error _ | Unix.Unix_error _) -> ())

let current_row () =
  let report, digest =
    match !state_report with
    | None -> (None, None)
    | Some p ->
        (* a dirty exit leaves the stream as .partial; the row records
           whichever of the two actually exists, with its digest, so the
           index entry joins to the bytes on disk *)
        let actual =
          if Sys.file_exists p then Some p
          else
            let pp = Atomic_io.partial_path p in
            if Sys.file_exists pp then Some pp else None
        in
        (match actual with
        | None -> (Some p, None)
        | Some f ->
            ( Some f,
              (try Some (Digest.to_hex (Digest.file f)) with Sys_error _ -> None)
            ))
  in
  let artifacts =
    match report with
    | Some f when not (List.mem f !state_artifacts) -> !state_artifacts @ [ f ]
    | _ -> !state_artifacts
  in
  {
    run_id = run_id ();
    ts = utc_timestamp ();
    tool = !state_tool;
    subcommand = !state_sub;
    argv = Array.to_list Sys.argv;
    outcome =
      (match !state_outcome with
      | Some s -> s
      | None -> if !state_exit = 0 then "ok" else "error");
    exit_code = !state_exit;
    metrics = !state_metrics;
    counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ());
    artifacts;
    report;
    report_digest = digest;
    extra = [];
  }

let append_current () =
  if !enabled && not !appended then begin
    appended := true;
    append_row (current_row ())
  end

(* --- rebuild from artifacts --- *)

let of_report_events ~path events =
  let st = Live_view.create_state () in
  List.iter (Live_view.feed_event st) events;
  let summary = st.summary in
  let outcome_ev = List.nth_opt st.outcomes 0 in
  let run_id =
    match Option.bind summary (Json.str_field "run_id") with
    | Some id -> id
    | None ->
        (* pre-ledger recordings carry no id; a digest-derived one is
           stable across rebuilds of the same bytes *)
        let d =
          try Digest.to_hex (Digest.file path)
          with Sys_error _ -> Digest.to_hex (Digest.string path)
        in
        "recovered-" ^ String.sub d 0 12
  in
  let argv =
    match Option.bind summary (Json.member "argv") with
    | Some (Json.List l) ->
        List.filter_map (function Json.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let subcommand =
    match argv with
    | _exe :: a :: _ when a <> "" && a.[0] <> '-' -> a
    | _ -> "?"
  in
  let counters =
    match Option.bind summary (Json.member "counters") with
    | Some (Json.Obj o) ->
        List.filter_map
          (function k, Json.Int v when v <> 0 -> Some (k, v) | _ -> None)
          o
    | _ -> []
  in
  let metric k j =
    match Json.member k j with
    | Some (Json.Int _ as v) | Some (Json.Float _ as v) -> Some v
    | _ -> None
  in
  let metrics =
    match outcome_ev with
    | None -> []
    | Some j ->
        List.filter_map
          (fun (name, key) ->
            Option.map (fun v -> (name, v)) (metric key j))
          [
            ("dynamics.final_social_cost", "social_cost");
            ("dynamics.steps", "steps");
            ("dynamics.max_regret", "max_regret");
          ]
        @
        (match Json.str_field "diagnosis" j with
        | Some d -> [ ("dynamics.diagnosis", Json.Str d) ]
        | None -> [])
  in
  let ts =
    match Unix.stat path with
    | st ->
        let t = Unix.gmtime st.Unix.st_mtime in
        Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
          (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
          t.Unix.tm_sec
    | exception Unix.Unix_error _ -> ""
  in
  let outcome =
    match outcome_ev with
    | Some j -> Option.value (Json.str_field "outcome" j) ~default:"ok"
    | None -> if summary <> None then "ok" else "interrupted"
  in
  {
    run_id;
    ts;
    tool = "recovered";
    subcommand;
    argv;
    outcome;
    exit_code = (if summary <> None then 0 else -1);
    metrics;
    counters;
    artifacts = [ path ];
    report = Some path;
    report_digest =
      (try Some (Digest.to_hex (Digest.file path)) with Sys_error _ -> None);
    extra = [];
  }

let scan_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let events, _skipped =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Trace_export.read_events ic)
      in
      if events = [] then None else Some (of_report_events ~path events)

let rebuild ?file ~dirs () =
  let file =
    match file with
    | Some f -> f
    | None -> Option.value (resolve_file ()) ~default:default_file
  in
  let ledger_base = Filename.basename file in
  let candidates =
    List.concat_map
      (fun dir ->
        match Sys.readdir dir with
        | exception Sys_error _ -> []
        | names ->
            let names = Array.to_list names in
            (* finals before partials, so when both exist for one run
               the committed bytes win the run_id slot *)
            let keep suffix =
              List.filter_map
                (fun n ->
                  if
                    Filename.check_suffix n suffix
                    && n <> ledger_base
                    && n <> ledger_base ^ ".partial"
                    && n <> "BENCH_history.jsonl"
                  then Some (Filename.concat dir n)
                  else None)
                (List.sort compare names)
            in
            keep ".jsonl" @ keep ".jsonl.partial")
      dirs
  in
  let existing, dropped = load ~file () in
  let seen = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace seen r.run_id ()) existing;
  let recovered =
    List.filter_map
      (fun p ->
        match scan_file p with
        | Some r when not (Hashtbl.mem seen r.run_id) ->
            Hashtbl.replace seen r.run_id ();
            Some r
        | _ -> None)
      candidates
  in
  let merged =
    List.stable_sort (fun a b -> compare a.ts b.ts) (existing @ recovered)
  in
  Atomic_io.write_file file (fun oc ->
      List.iter
        (fun r ->
          output_string oc (Json.to_string (row_to_json r));
          output_char oc '\n')
        merged);
  (List.length existing, List.length recovered, dropped)
