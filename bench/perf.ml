(* Bechamel micro-benchmarks for the substrate hot paths. *)

open Bechamel
open Toolkit
open Bbng_core
module Generators = Bbng_graph.Generators

let rng = Random.State.make [| 0xBE5C |]

let gnp200 = Generators.random_connected_gnp rng ~n:200 ~p:0.05
let grid = Generators.grid_graph ~rows:8 ~cols:8
let sun30 = Bbng_constructions.Unit_budget.concentrated_sun ~n:30
let sun_game = Game.make Cost.Sum (Strategy.budgets sun30)
let tripod8 = Bbng_constructions.Tripod.profile ~k:8
let tripod_game = Game.make Cost.Max (Strategy.budgets tripod8)

(* Engine head-to-head: one player's exhaustive scan of all C(n-1, b)
   candidate strategies on a circulant profile (i -> {i+1, i+2} mod n),
   priced once per engine through [Exp_common.forced_engine_scan] —
   the per-candidate cost is what separates the overlay-BFS engine
   from the distance-row engine.  The profile is sized so neither the
   cost floor nor Lemma 2.2 would prune a production search either. *)
let circ30 =
  let n = 30 in
  Strategy.make
    (Budget.uniform ~n ~budget:2)
    (Array.init n (fun i ->
         let s = [| (i + 1) mod n; (i + 2) mod n |] in
         Array.sort compare s;
         s))

(* Census pipeline: the end-to-end scan of a full unit-budget space,
   and the merge step in isolation (pre-scanned shard results), so the
   recorded trend separates "certifying got slower" from "the sharded
   pipeline's aggregation overhead grew". *)
module Census = Bbng_analysis.Census

let census_game = Game.make Cost.Sum (Budget.unit_budgets 4)
let census_plan = Census.make_plan ~shard_size:9 census_game

let census_shard_results =
  List.filter_map (Census.scan_shard census_game) (Census.shards census_plan)

(* Named thunks shared by the Bechamel tests and the warm-up pass:
   the first executions of a workload pay for lazy caches, branch
   predictors and the allocator reaching steady state, which is what
   made deviation-incremental-sun30's OLS fit collapse (r^2 ~ 0.53 in
   recorded smoke runs) — running each thunk a few times before
   Bechamel samples restores the fit. *)
let deviation_ctx = Deviation_eval.make Cost.Sum sun30 ~player:5
let sun30_rows = Array.init (Strategy.n sun30) (Strategy.strategy sun30)

(* Preallocated scratch for the raw BFS kernel bench: with dist/queue
   reused across runs the workload is the zero-allocation sweep alone,
   so its minor-words column pins the "0 words per BFS" claim. *)
let csr_dist = Array.make 200 (-1)
let csr_queue = Array.make 200 0

let workloads =
  [
    ("bfs-gnp200", fun () -> ignore (Bbng_graph.Bfs.distances gnp200 0));
    ( "bfs-csr-gnp200",
      fun () ->
        ignore
          (Bbng_graph.Bfs.distances_into gnp200 ~src:0 ~dist:csr_dist
             ~queue:csr_queue)
    );
    (* diameter ablation: the full n-sweep eccentricity fold this name
       always measured vs the pruned iFUB engine that [diameter] now
       dispatches to — like the rows/bfs pair, history carries the
       old-engine line and the new name gates the new one *)
    ( "diameter-gnp200",
      fun () ->
        ignore
          (Bbng_graph.Distances.fold_eccentricities gnp200
             (fun a _ e -> max a e)
             0) );
    ( "diameter-ifub-gnp200",
      fun () -> ignore (Bbng_graph.Distances.diameter gnp200) );
    ("sum-cost-gnp200", fun () -> ignore (Cost.vertex_cost Cost.Sum gnp200 0));
    ( "connectivity-grid8x8",
      fun () -> ignore (Bbng_graph.Connectivity.vertex_connectivity grid) );
    ("swap-br-sun30", fun () -> ignore (Best_response.swap_best sun_game sun30 5));
    ( "certify-tripod-k8",
      fun () -> ignore (Equilibrium.is_nash tripod_game tripod8) );
    (* what [Strategy.underlying] does on a memo miss; the memo would
       turn a call on the one profile into a lookup *)
    ( "realize-sun30",
      fun () -> ignore (Bbng_graph.Undirected.of_out_neighbors sun30_rows) );
    (* deviation-evaluation ablation: generic rebuild vs incremental *)
    ( "deviation-generic-sun30",
      fun () ->
        ignore (Game.deviation_cost sun_game sun30 ~player:5 ~targets:[| 7 |]) );
    ( "deviation-incremental-sun30",
      fun () -> ignore (Deviation_eval.cost deviation_ctx [| 7 |]) );
    (* engine head-to-head on the same full C(29,2) = 406 scan — the
       report derives rows_vs_bfs_speedup from this pair *)
    ( "br-exact-bfs-n30b2",
      fun () ->
        ignore
          (Exp_common.forced_engine_scan ~engine:Deviation_eval.Bfs_overlay
             Cost.Sum circ30 0) );
    ( "br-exact-rows-n30b2",
      fun () ->
        ignore
          (Exp_common.forced_engine_scan ~engine:Deviation_eval.Rows Cost.Sum
             circ30 0) );
    ("census-scan-unit4", fun () -> ignore (Census.run census_game));
    ( "census-merge-unit4",
      fun () ->
        ignore (Census.merge census_game census_plan census_shard_results) );
  ]

let tests =
  Test.make_grouped ~name:"bbng" ~fmt:"%s/%s"
    (List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) workloads)

let warm_up () = List.iter (fun (_, f) -> for _ = 1 to 10 do f () done) workloads

type result = {
  test : string;
  ns : float option;
  minor : float option;          (* minor words / run *)
  major : float option;          (* major words / run — GC pressure *)
  r2 : float option;
}

let measure ~quota =
  (* quota floor: below ~50ms per bench the cheap workloads get too few
     distinct iteration counts for a stable OLS fit *)
  let quota = Float.max 0.05 quota in
  warm_up ();
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances =
    Instance.[ monotonic_clock; minor_allocated; major_allocated ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let minors = Analyze.all ols Instance.minor_allocated raw in
  let majors = Analyze.all ols Instance.major_allocated raw in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some r -> (
        match Analyze.OLS.estimates r with
        | Some (est :: _) -> Some est
        | Some [] | None -> None)
    | None -> None
  in
  let r_square name =
    match Hashtbl.find_opt times name with
    | Some r -> Analyze.OLS.r_square r
    | None -> None
  in
  let names = List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) times []) in
  List.map
    (fun name ->
      {
        test = name;
        ns = estimate times name;
        minor = estimate minors name;
        major = estimate majors name;
        r2 = r_square name;
      })
    names

let print_table results =
  let cell = function Some v -> Printf.sprintf "%.0f" v | None -> "?" in
  let r2_cell = function Some v -> Printf.sprintf "%.4f" v | None -> "?" in
  let table =
    Bbng_analysis.Table.make
      ~headers:
        [ "benchmark"; "ns/run"; "minor words/run"; "major words/run"; "r2(time)" ]
  in
  List.iter
    (fun r ->
      Bbng_analysis.Table.add_row table
        [ r.test; cell r.ns; cell r.minor; cell r.major; r2_cell r.r2 ])
    results;
  Bbng_analysis.Table.print table

(* rows-engine speedup on the exhaustive best-response pair, derived
   from the measured pair rather than re-timed, so the recorded ratio
   matches the ns/run figures in the same report *)
let rows_vs_bfs_speedup results =
  let ns name =
    List.find_map
      (fun r -> if r.test = "bbng/" ^ name then r.ns else None)
      results
  in
  match (ns "br-exact-bfs-n30b2", ns "br-exact-rows-n30b2") with
  | Some bfs, Some rows when rows > 0. -> Some (bfs /. rows)
  | _ -> None

let report ~name results =
  let module Json = Bbng_obs.Json in
  let num = function Some v -> Json.Float v | None -> Json.Null in
  (* the overwritten BENCH_<name>.json is the latest snapshot; the
     history line is the trajectory `bench --trend` gates against *)
  History.append ~report:name
    (List.map
       (fun r ->
         {
           History.name = r.test;
           ns = r.ns;
           minor = r.minor;
           major = r.major;
           r2 = r.r2;
         })
       results);
  (* the run's ledger row carries the headline figures too, so
     `bbng_cli runs diff` can gate two bench runs without re-opening
     their reports (speedup-style ratios are excluded: diff treats
     "up" as bad, which only holds for costs) *)
  List.iter
    (fun r ->
      (match r.ns with
      | Some ns ->
          Bbng_obs.Ledger.add_metric
            ("bench." ^ r.test ^ ".ns_per_run")
            (Json.Float ns)
      | None -> ());
      match r.minor with
      | Some mw ->
          Bbng_obs.Ledger.add_metric
            ("bench." ^ r.test ^ ".minor_words_per_run")
            (Json.Float mw)
      | None -> ())
    results;
  Exp_common.write_bench_report ~name
    [
      ("rows_vs_bfs_speedup", num (rows_vs_bfs_speedup results));
      ( "results",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.Str r.test);
                   ("ns_per_run", num r.ns);
                   ("minor_words_per_run", num r.minor);
                   ("major_words_per_run", num r.major);
                   ("r_square_time", num r.r2);
                 ])
             results) );
    ]

let run_with ~report_name ~quota () =
  Exp_common.section
    "PERF — Bechamel micro-benchmarks (monotonic clock + minor/major allocations)";
  let results = measure ~quota in
  print_table results;
  (match rows_vs_bfs_speedup results with
  | Some s ->
      Exp_common.note
        "rows vs overlay-BFS speedup (exhaustive best response, n=30 b=2): %.1fx" s
  | None -> ());
  report ~name:report_name results

let run () = run_with ~report_name:"micro" ~quota:0.25 ()

(* a few-second sanity pass: same tests, tiny quota, own report file —
   bin/check.sh validates that BENCH_smoke.json stays parseable and
   diffs it against the last committed baseline *)
let smoke () = run_with ~report_name:"smoke" ~quota:0.02 ()
