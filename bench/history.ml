(* Append-only bench trajectory: every perf run adds one JSON line to
   BENCH_history.jsonl — provenance, per-bench ns/words/r², and a
   digest of the engine counters — so `bench --trend` has a recorded
   history to gate against instead of a single overwritten report.

   The file is append-only on purpose: runs from different machines or
   branches coexist, and the robust median/MAD in Trend absorbs the
   odd outlier line.  Reading tolerates torn or alien lines (a crash
   mid-append loses at most its own line). *)

module Json = Bbng_obs.Json

let file = "BENCH_history.jsonl"

type bench = {
  name : string;
  ns : float option;
  minor : float option;
  major : float option;
  r2 : float option;
}

type entry = {
  ts : string;
  report : string;
  benches : bench list;
  counters_digest : string;
}

let utc_timestamp () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

(* one digest line instead of the full counter snapshot: enough to tell
   "same work executed" apart from "the engines took different paths",
   without bloating every history line *)
let counters_digest () =
  Digest.to_hex
    (Digest.string (Json.to_string (Bbng_obs.Stats.counters_json ())))

let num = function Some v -> Json.Float v | None -> Json.Null

let entry_json ~report benches =
  Json.Obj
    ([
       ("ts", Json.Str (utc_timestamp ()));
       ("report", Json.Str report);
       ( "results",
         Json.List
           (List.map
              (fun b ->
                Json.Obj
                  [
                    ("name", Json.Str b.name);
                    ("ns_per_run", num b.ns);
                    ("minor_words_per_run", num b.minor);
                    ("major_words_per_run", num b.major);
                    ("r_square_time", num b.r2);
                  ])
              benches) );
       ("counters_digest", Json.Str (counters_digest ()));
     ]
    @ Bbng_obs.Stats.provenance_fields ())

let append ?(file = file) ~report benches =
  Bbng_obs.Atomic_io.append_line file (Json.to_string (entry_json ~report benches))

(* --- reading --- *)

let entry_of_json j =
  match (Json.str_field "report" j, Json.member "results" j) with
  | Some report, Some (Json.List results) ->
      let benches =
        List.filter_map
          (fun r ->
            match Json.str_field "name" r with
            | Some name ->
                Some
                  {
                    name;
                    ns = Json.num_field "ns_per_run" r;
                    minor = Json.num_field "minor_words_per_run" r;
                    major = Json.num_field "major_words_per_run" r;
                    r2 = Json.num_field "r_square_time" r;
                  }
            | None -> None)
          results
      in
      Some
        {
          ts = Option.value ~default:"?" (Json.str_field "ts" j);
          report;
          benches;
          counters_digest =
            Option.value ~default:"" (Json.str_field "counters_digest" j);
        }
  | _ -> None

(* skipped lines are counted, not fatal: a torn tail (crash mid-append)
   or a hand-edited line must never wedge the trend gate *)
let load ?(file = file) () =
  match open_in file with
  | exception Sys_error _ -> ([], 0)
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Json.read_lines ic entry_of_json)
