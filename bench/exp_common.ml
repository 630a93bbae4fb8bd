(* Shared plumbing for the experiment harness. *)

open Bbng_core
module Table = Bbng_analysis.Table
module Growth = Bbng_analysis.Growth

(* Headers are flushed eagerly: experiment phases can run for minutes,
   and the counter/span stats land on stderr — without the flush the
   two streams interleave mid-line in captured logs. *)
let section title =
  let bar = String.make (String.length title + 8) '=' in
  Printf.printf "\n%s\n=== %s ===\n%s\n" bar title bar;
  flush stdout

let subsection title =
  Printf.printf "\n--- %s ---\n" title;
  flush stdout

let note fmt =
  Printf.ksprintf
    (fun s ->
      Printf.printf "  %s\n" s;
      flush stdout)
    fmt

let rng seed = Random.State.make [| 0xBB9; seed |]

(* --- audit-trail artifacts --- *)

(* Certificates and flight recordings land in artifacts/ next to the
   BENCH_*.json reports: one file per certified construction or
   recorded dynamics run, independently re-checkable with
   `bbng_cli verify` / `bbng_cli replay` (bin/check.sh gates a golden
   subset in test/golden/). *)
let artifacts_dir () =
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let artifact_path name = Filename.concat (artifacts_dir ()) name

(* Scaled equilibrium certification.  Three tiers, by estimated work:
   1. exact Nash (sum over players of C(n-1, b) BFS runs);
   2. full swap-stability (sum of b*n single-swap evaluations);
   3. sampled swap-stability (a spread of at most [sample] players).
   The returned string names the tier that ran and its verdict.

   [?artifact:"name"] additionally writes the certification's evidence
   to artifacts/CERT_<name>.json when a certificate-producing tier ran
   (the sampled tier checks too little to certify anything). *)
let certify_scaled ?(exact_limit = 400_000_000) ?(swap_limit = 300_000_000)
    ?(sample = 40) ?artifact version profile =
  let budgets = Strategy.budgets profile in
  let n = Strategy.n profile in
  let game = Game.make version budgets in
  let bfs_cost = 4 * n in
  let sat_add a b = if a > max_int - b then max_int else a + b in
  let exact_work =
    Array.fold_left
      (fun acc b ->
        let c = Bbng_graph.Combinatorics.binomial_sat (n - 1) b in
        sat_add acc (if c > max_int / bfs_cost then max_int else c * bfs_cost))
      0 (Budget.to_array budgets)
  in
  let swap_work = Budget.total budgets * n * bfs_cost in
  let emit cert =
    match artifact with
    | None -> ()
    | Some name ->
        let path = artifact_path (Printf.sprintf "CERT_%s.json" name) in
        Equilibrium.write_certificate path cert;
        note "wrote %s" path
  in
  if exact_work <= exact_limit then begin
    let cert = Equilibrium.certify_cert game profile in
    emit cert;
    match Equilibrium.certificate_verdict cert with
    | Equilibrium.Equilibrium -> "NE(exact)"
    | Equilibrium.Refuted _ -> "NOT-NE"
    | Equilibrium.Degraded _ -> "NE(degraded)"
  end
  else if swap_work <= swap_limit then begin
    let cert = Equilibrium.certify_swap_cert game profile in
    emit cert;
    match Equilibrium.certificate_verdict cert with
    | Equilibrium.Equilibrium -> "swap-stable"
    | Equilibrium.Refuted _ -> "NOT-swap-stable"
    | Equilibrium.Degraded _ -> "swap-stable(degraded)"
  end
  else begin
    let step = max 1 (n / sample) in
    let ok = ref true in
    let player = ref 0 in
    while !ok && !player < n do
      if Best_response.first_improving_swap game profile !player <> None then
        ok := false;
      player := !player + step
    done;
    if !ok then "swap-stable(sampled)" else "NOT-swap-stable(sampled)"
  end

(* Run [f] with a JSONL flight recorder capturing every dynamics event
   into artifacts/DYN_<name>.jsonl; the recording replays with
   `bbng_cli replay`.  The stream goes through the crash-safe partial
   protocol: a run killed mid-write leaves any previous recording
   untouched and a DYN_<name>.jsonl.partial holding a replayable
   prefix. *)
let record_dynamics ~name f =
  let path = artifact_path (Printf.sprintf "DYN_%s.jsonl" name) in
  let oc = Bbng_obs.Atomic_io.open_stream path in
  let result =
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Bbng_obs.Sink.scoped (Bbng_obs.Sink.Jsonl oc) f)
  in
  Bbng_obs.Atomic_io.commit_stream path;
  note "wrote %s" path;
  result

let diameter profile = Cost.social_cost (Strategy.underlying profile)

let fit_line label points =
  let fit = Growth.best_fit points in
  Printf.printf "  fit[%s]: %s\n" label (Format.asprintf "%a" Growth.pp_fit fit);
  fit

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verdict_cell ok = if ok then "ok" else "VIOLATED"

(* Engine ablation: price every one of a player's C(n-1, b) candidate
   strategies through a context forced onto [engine].  Production
   searches let the player's budget pick the engine; this scan is how
   the bench times both engines over the same candidates, in the same
   lexicographic order.  Returns the first cheapest strategy and its
   cost. *)
let forced_engine_scan ~engine version profile player =
  let ctx = Deviation_eval.make ~engine version profile ~player in
  let n = Strategy.n profile in
  let b = Budget.get (Strategy.budgets profile) player in
  let buf = Array.make b 0 in
  let best = ref None in
  Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:b (fun c ->
      (* subsets of {0..n-2}, shifted past the player *)
      for i = 0 to b - 1 do
        buf.(i) <- (if c.(i) < player then c.(i) else c.(i) + 1)
      done;
      let cost = Deviation_eval.cost ctx buf in
      match !best with
      | Some (_, best_cost) when best_cost <= cost -> ()
      | _ -> best := Some (Array.copy buf, cost));
  !best

(* --- machine-readable run reports --- *)

module Json = Bbng_obs.Json

(* BENCH_<name>.json in the invocation directory: the given fields
   plus a snapshot of every engine counter, the process GC delta and
   provenance (argv / compiler / word size), so the perf trajectory
   accumulates comparable, self-describing data run over run — and
   bench/main.exe --diff can gate on it. *)
let write_bench_report ~name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let json =
    Json.Obj
      (("report", Json.Str name)
      :: fields
      @ [ ("counters", Bbng_obs.Stats.counters_json ()) ]
      @ [ ("gc", Bbng_obs.Gcstats.to_json (Bbng_obs.Gcstats.since_start ())) ]
      @ Bbng_obs.Stats.provenance_fields ())
  in
  (* temp + atomic rename: a crashed run never leaves a torn BENCH
     report for --diff to choke on *)
  Bbng_obs.Atomic_io.write_file path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  note "wrote %s" path
