open Helpers
open Bbng_core
open Bbng_analysis
module Atomic_io = Bbng_obs.Atomic_io
module Budgeted = Bbng_obs.Budgeted
module Json = Bbng_obs.Json

let complete_exn = function
  | Census.Complete c -> c
  | Census.Partial _ -> Alcotest.fail "unexpected partial census"

let run_c ?limit game = complete_exn (Census.run ?limit game)

(* a fresh path whose file does not exist yet (census commits it) *)
let fresh_path () =
  let file = Filename.temp_file "bbng_census" ".jsonl" in
  Sys.remove file;
  file

let read_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  String.split_on_char '\n' (read_bytes path)
  |> List.filter (fun l -> String.trim l <> "")

let write_lines path lines =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> List.iter (fun l -> output_string oc (l ^ "\n")) lines)

let cleanup path =
  List.iter
    (fun p -> try Sys.remove p with Sys_error _ -> ())
    [ path; Atomic_io.partial_path path ]

(* --- the aggregate itself --- *)

let test_unit3 () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 3) in
  let c = run_c game in
  check_int "profiles" 8 c.Census.total_profiles;
  check_int "scanned" 8 c.Census.scanned_profiles;
  check_int "equilibria" 2 c.Census.equilibria;
  (* both equilibria are directed triangles: one isomorphism class *)
  check_int "iso classes" 1 (List.length c.Census.iso_classes);
  check_true "class counts" (List.map snd c.Census.iso_class_counts = [ 2 ]);
  check_true "histogram" (c.Census.diameter_histogram = [ (1, 2) ]);
  check_true "min" (c.Census.min_diameter = Some 1);
  check_true "max" (c.Census.max_diameter = Some 1)

let test_unit4 () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let c = run_c game in
  check_int "profiles" 81 c.Census.total_profiles;
  check_int "equilibria" 30 c.Census.equilibria;
  check_true "every class diameter <= 4"
    (List.for_all (fun (d, _) -> d <= 4) c.Census.diameter_histogram);
  (* histogram counts add up *)
  check_int "histogram total" 30
    (List.fold_left (fun acc (_, c) -> acc + c) 0 c.Census.diameter_histogram);
  check_true "far fewer classes than equilibria"
    (List.length c.Census.iso_classes < 30);
  check_int "class counts total" 30
    (List.fold_left (fun acc (_, c) -> acc + c) 0 c.Census.iso_class_counts)

let test_representatives_are_nash () =
  let game = Game.make Cost.Max (Budget.unit_budgets 4) in
  let c = run_c game in
  List.iter
    (fun p -> check_true "representative certified" (Equilibrium.is_nash game p))
    c.Census.iso_classes

let test_poa () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let c = run_c game in
  match Census.price_of_anarchy c with
  | Some r ->
      check_int "den = opt" 2 r.Poa.den;
      check_true "ratio >= 1" (Poa.ratio_to_float r >= 1.0)
  | None -> Alcotest.fail "expected a PoA"

let test_empty_census () =
  (* subcritical instance: equilibria exist (disconnected ones) *)
  let game = Game.make Cost.Sum (Budget.of_list [ 0; 0; 1; 0 ]) in
  let c = run_c game in
  check_true "has equilibria" (c.Census.equilibria > 0);
  check_true "diameter is n^2" (c.Census.min_diameter = Some 16)

let test_limit () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 5) in
  let c = run_c ~limit:3 game in
  check_int "limited" 3 c.Census.equilibria;
  (* a limit stop is Complete over the scanned prefix, not Partial *)
  check_true "scanned a strict prefix"
    (c.Census.scanned_profiles < c.Census.total_profiles)

let test_summary_prints () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 3) in
  let s = Format.asprintf "%a" Census.pp_outcome (Census.run game) in
  check_true "non-empty" (String.length s > 10)

(* --- sharded pipeline vs the sequential scan --- *)

let censuses_agree name a b =
  check_int (name ^ ": total") a.Census.total_profiles b.Census.total_profiles;
  check_int (name ^ ": scanned") a.Census.scanned_profiles
    b.Census.scanned_profiles;
  check_int (name ^ ": equilibria") a.Census.equilibria b.Census.equilibria;
  Alcotest.(check (list string))
    (name ^ ": iso classes")
    (List.map Strategy.to_string a.Census.iso_classes)
    (List.map Strategy.to_string b.Census.iso_classes);
  check_true (name ^ ": class counts")
    (List.map snd a.Census.iso_class_counts
    = List.map snd b.Census.iso_class_counts);
  check_true (name ^ ": histogram")
    (a.Census.diameter_histogram = b.Census.diameter_histogram)

let test_sharded_matches_run () =
  (* unit n=4 plus random n=5 budget vectors of 576 to 1,536 profiles *)
  let random =
    List.map
      (fun (total, seed) -> Budget.random_partition (rng seed) ~n:5 ~total)
      [ (6, 5); (7, 6); (8, 2); (12, 4) ]
  in
  List.iter
    (fun b ->
      List.iter
        (fun version ->
          let game = Game.make version b in
          let seq = run_c game in
          List.iter
            (fun shard_size ->
              let sh =
                complete_exn (Census.run_sharded ~domains:2 ~shard_size game)
              in
              censuses_agree
                (Format.asprintf "%a shard_size=%d" Game.pp game shard_size)
                seq sh)
            [ 1; 7; 81; 1000 ])
        Cost.all_versions)
    (Budget.unit_budgets 4 :: random)

(* the census's progress counters live in the one Counter registry, so
   the tools that explain a run (--stats, heartbeats, ledger rows) see
   them; their deltas must match the outcome exactly across domains *)
let test_counters_match_outcome () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 5) in
  let scanned0 = Bbng_obs.Counter.find "census.profiles_scanned"
  and found0 = Bbng_obs.Counter.find "census.equilibria_found" in
  let c = complete_exn (Census.run_sharded ~domains:2 game) in
  check_int "profiles_scanned delta" c.Census.scanned_profiles
    (Bbng_obs.Counter.find "census.profiles_scanned" - scanned0);
  check_int "equilibria_found delta" c.Census.equilibria
    (Bbng_obs.Counter.find "census.equilibria_found" - found0);
  let path = Filename.temp_file "bbng_stats" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Bbng_obs.Stats.print oc);
      let stats = read_bytes path in
      check_true "--stats names census.profiles_scanned"
        (List.exists
           (fun l ->
             match String.split_on_char ' ' (String.trim l) with
             | name :: _ -> name = "census.profiles_scanned"
             | [] -> false)
           (String.split_on_char '\n' stats)))

let prop_sharded_matches_run =
  qcheck ~count:20 "run_sharded == run on random small instances"
    (QCheck.make
       ~print:(fun (n, total, seed, size) ->
         Printf.sprintf "n=%d total=%d seed=%d shard_size=%d" n total seed size)
       QCheck.Gen.(
         int_range 2 4 >>= fun n ->
         int_range 0 (min (n + 1) (n * (n - 1))) >>= fun total ->
         int_range 0 10_000 >>= fun seed ->
         int_range 1 17 >>= fun size -> return (n, total, seed, size)))
    (fun (n, total, seed, size) ->
      let b = Budget.random_partition (rng seed) ~n ~total in
      let game = Game.make Cost.Sum b in
      let a = run_c game in
      let b' = complete_exn (Census.run_sharded ~shard_size:size game) in
      a.Census.equilibria = b'.Census.equilibria
      && List.map Strategy.to_string a.Census.iso_classes
         = List.map Strategy.to_string b'.Census.iso_classes
      && a.Census.diameter_histogram = b'.Census.diameter_histogram)

(* a recorded census costs one span close per shard: the verdict
   certifications inside record no per-player span, while a certificate
   keeps one per evidence entry *)
let test_spans_per_shard () =
  let module Span = Bbng_obs.Span in
  let closes name =
    match List.assoc_opt name (Span.snapshot ()) with
    | Some s -> s.Span.count
    | None -> 0
  in
  let was = Span.enabled () in
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled was)
    (fun () ->
      let game = Game.make Cost.Sum (Budget.unit_budgets 5) in
      let shards0 = closes "census.shard"
      and players0 = closes "equilibrium.certify_player" in
      let c = complete_exn (Census.run_sharded ~shard_size:64 game) in
      check_int "profiles" 1024 c.Census.scanned_profiles;
      check_int "one census.shard close per shard" 16
        (closes "census.shard" - shards0);
      check_int "no equilibrium.certify_player in a census" 0
        (closes "equilibrium.certify_player" - players0);
      let p = Bbng_constructions.Unit_budget.concentrated_sun ~n:5 in
      let cert = Equilibrium.certify_cert game p in
      check_int "one equilibrium.certify_player per evidence entry"
        (List.length cert.Equilibrium.cert_evidence)
        (closes "equilibrium.certify_player" - players0))

let test_plan_shards_partition () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let plan = Census.make_plan ~shard_size:7 game in
  check_int "total" 81 plan.Census.total;
  check_int "num_shards" 12 plan.Census.num_shards;
  let shards = Census.shards plan in
  check_int "shard count" 12 (List.length shards);
  (* contiguous cover of [0, total) *)
  let _ =
    List.fold_left
      (fun expect s ->
        check_int "contiguous lo" expect s.Census.lo;
        check_true "ordered" (s.Census.lo < s.Census.hi);
        s.Census.hi)
      0 shards
  in
  check_int "covers total" 81 (List.rev shards |> List.hd).Census.hi

let test_make_plan_guards () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 3) in
  check_true "shard_size 0 rejected"
    (match Census.make_plan ~shard_size:0 game with
    | exception Invalid_argument _ -> true
    | _ -> false);
  (* a saturated profile space cannot be sharded *)
  let huge = Game.make Cost.Sum (Budget.uniform ~n:40 ~budget:18) in
  check_true "saturated space rejected"
    (match Census.make_plan huge with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- budget expiry degrades to a typed Partial --- *)

let test_budget_partial_run () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let budget = Budgeted.create ~work_limit:40 () in
  match Census.run ~budget game with
  | Census.Complete _ -> Alcotest.fail "expected partial"
  | Census.Partial { census; unscanned; why } ->
      check_true "work-limit" (why = Budgeted.Work_limit);
      check_true "scanned a strict prefix"
        (census.Census.scanned_profiles > 0
        && census.Census.scanned_profiles < census.Census.total_profiles);
      let missing =
        List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 unscanned
      in
      check_int "scanned + unscanned = total" census.Census.total_profiles
        (census.Census.scanned_profiles + missing)

let test_budget_partial_sharded () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let budget = Budgeted.create ~work_limit:60 () in
  match Census.run_sharded ~shard_size:9 ~budget game with
  | Census.Complete _ -> Alcotest.fail "expected partial"
  | Census.Partial { census; unscanned; _ } ->
      check_true "some ranges unscanned" (unscanned <> []);
      (* only whole shards aggregate: scanned is a multiple of the size *)
      check_int "whole shards only" 0 (census.Census.scanned_profiles mod 9);
      let missing =
        List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 unscanned
      in
      check_int "partition" 81 (census.Census.scanned_profiles + missing)

(* --- checkpoint / resume --- *)

let test_checkpoint_roundtrip () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let fresh =
        complete_exn (Census.run_sharded ~shard_size:7 ~checkpoint:path game)
      in
      check_true "final committed" (Sys.file_exists path);
      check_false "partial subsumed"
        (Sys.file_exists (Atomic_io.partial_path path));
      (* resuming a committed artifact validates it read-only *)
      match Census.resume path with
      | Ok (Census.Complete again, skipped) ->
          check_int "clean read" 0 skipped;
          censuses_agree "reloaded" fresh again
      | Ok (Census.Partial _, _) -> Alcotest.fail "read-only resume degraded"
      | Error e -> Alcotest.fail e)

let test_budgeted_checkpoint_then_resume () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let reference = fresh_path () and path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      cleanup reference;
      cleanup path)
    (fun () ->
      ignore
        (complete_exn
           (Census.run_sharded ~shard_size:7 ~checkpoint:reference game));
      (* expire mid-census: whole shards land in the checkpoint *)
      let budget = Budgeted.create ~work_limit:60 () in
      (match Census.run_sharded ~shard_size:7 ~budget ~checkpoint:path game with
      | Census.Partial _ -> ()
      | Census.Complete _ -> Alcotest.fail "expected partial");
      check_true "partial checkpoint left behind"
        (Sys.file_exists (Atomic_io.partial_path path));
      check_false "no final yet" (Sys.file_exists path);
      match Census.resume path with
      | Ok (Census.Complete _, _) ->
          Alcotest.(check string)
            "resumed artifact byte-identical to uninterrupted run"
            (read_bytes reference) (read_bytes path);
          check_false "partial removed"
            (Sys.file_exists (Atomic_io.partial_path path))
      | Ok (Census.Partial _, _) -> Alcotest.fail "unlimited resume degraded"
      | Error e -> Alcotest.fail e)

(* A committed artifact's line-prefix is itself a valid checkpoint (the
   plan row leads, summary rows are ignored), so truncation at every
   depth models a crash after any number of completed shards. *)
let test_resume_truncation_oracle () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let reference = fresh_path () in
  Fun.protect
    ~finally:(fun () -> cleanup reference)
    (fun () ->
      ignore
        (complete_exn
           (Census.run_sharded ~shard_size:11 ~checkpoint:reference game));
      let want = read_bytes reference in
      let lines = read_lines reference in
      check_true "several rows" (List.length lines > 3);
      List.iteri
        (fun i _ ->
          let k = i + 1 in
          let path = fresh_path () in
          Fun.protect
            ~finally:(fun () -> cleanup path)
            (fun () ->
              write_lines (Atomic_io.partial_path path)
                (List.filteri (fun j _ -> j < k) lines);
              match Census.resume path with
              | Ok (Census.Complete _, skipped) ->
                  check_int (Printf.sprintf "prefix %d: clean" k) 0 skipped;
                  Alcotest.(check string)
                    (Printf.sprintf "prefix %d: byte-identical" k)
                    want (read_bytes path)
              | Ok (Census.Partial _, _) ->
                  Alcotest.failf "prefix %d: resume degraded" k
              | Error e -> Alcotest.failf "prefix %d: %s" k e))
        lines;
      (* zero lines: no plan row to adopt *)
      let path = fresh_path () in
      Fun.protect
        ~finally:(fun () -> cleanup path)
        (fun () ->
          write_lines (Atomic_io.partial_path path) [];
          check_true "plan-less checkpoint rejected"
            (match Census.resume path with Error _ -> true | Ok _ -> false)))

let prop_resume_survives_torn_tail =
  (* crash mid-append: the checkpoint ends in a torn prefix of a valid
     row plus junk — resume must skip it and still commit the exact
     reference artifact *)
  qcheck ~count:30 "resume after torn/garbage tail is byte-identical"
    (QCheck.make
       ~print:(fun (k, cut, junk) ->
         Printf.sprintf "keep=%d cut=%d junk=%d" k cut junk)
       QCheck.Gen.(
         int_range 1 6 >>= fun k ->
         int_range 1 40 >>= fun cut ->
         int_range 0 2 >>= fun junk -> return (k, cut, junk)))
    (fun (k, cut, junk) ->
      let game = Game.make Cost.Sum (Budget.unit_budgets 3) in
      let reference = fresh_path () and path = fresh_path () in
      Fun.protect
        ~finally:(fun () ->
          cleanup reference;
          cleanup path)
        (fun () ->
          ignore
            (complete_exn
               (Census.run_sharded ~shard_size:2 ~checkpoint:reference game));
          let lines = read_lines reference in
          let keep = min k (List.length lines - 1) in
          let prefix = List.filteri (fun j _ -> j < keep) lines in
          let victim = List.nth lines keep in
          let torn = String.sub victim 0 (min cut (String.length victim)) in
          let junk_lines =
            List.init junk (fun i -> Printf.sprintf "junk line %d {" i)
          in
          write_lines (Atomic_io.partial_path path)
            (prefix @ junk_lines @ [ torn ]);
          match Census.resume path with
          | Ok (Census.Complete _, skipped) ->
              skipped >= 1 && read_bytes path = read_bytes reference
          | Ok (Census.Partial _, _) | Error _ -> false))

let test_resume_dedups_duplicate_shards () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let reference = fresh_path () and path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      cleanup reference;
      cleanup path)
    (fun () ->
      ignore
        (complete_exn
           (Census.run_sharded ~shard_size:11 ~checkpoint:reference game));
      let lines = read_lines reference in
      (* two workers raced: a shard row appears twice — and its first
         copy came from an older writer whose checkpoint rows also
         carried an "engine" provenance field.  The digest covers every
         field, so that row must still verify and win the dedup. *)
      let legacy =
        match Json.of_string (List.nth lines 1) with
        | Json.Obj fields ->
            let bare = List.filter (fun (k, _) -> k <> "digest") fields in
            let bare =
              bare @ [ ("pid", Json.Int 1); ("engine", Json.Str "auto") ]
            in
            let payload = Json.to_string (Json.Obj bare) in
            Json.to_string
              (Json.Obj
                 (bare
                 @ [ ("digest", Json.Str (Digest.to_hex (Digest.string payload))) ]
                 ))
        | _ -> Alcotest.fail "shard row is not an object"
      in
      let doubled =
        List.mapi (fun i l -> if i = 1 then legacy else l) lines
        @ [ List.nth lines 1; List.nth lines 2 ]
      in
      write_lines (Atomic_io.partial_path path) doubled;
      match Census.resume path with
      | Ok (Census.Complete _, skipped) ->
          check_int "duplicates are not damage" 0 skipped;
          Alcotest.(check string)
            "first-wins dedup" (read_bytes reference) (read_bytes path)
      | Ok (Census.Partial _, _) -> Alcotest.fail "resume degraded"
      | Error e -> Alcotest.fail e)

let test_resume_skips_alien_instance () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let alien = Game.make Cost.Max (Budget.unit_budgets 4) in
  let reference = fresh_path () and path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      cleanup reference;
      cleanup path)
    (fun () ->
      ignore
        (complete_exn
           (Census.run_sharded ~shard_size:11 ~checkpoint:reference game));
      let alien_plan = Census.make_plan ~shard_size:11 alien in
      check_true "keys differ"
        (Census.plan_key (Census.make_plan ~shard_size:11 game)
        <> Census.plan_key alien_plan);
      let lines = read_lines reference in
      write_lines (Atomic_io.partial_path path)
        (lines @ [ Json.to_string (Census.plan_row alien_plan) ]);
      match Census.resume path with
      | Ok (Census.Complete _, skipped) ->
          check_int "alien plan row skipped" 1 skipped;
          Alcotest.(check string)
            "aggregate unpolluted" (read_bytes reference) (read_bytes path)
      | Ok (Census.Partial _, _) -> Alcotest.fail "resume degraded"
      | Error e -> Alcotest.fail e)

let test_resume_missing () =
  let path = fresh_path () in
  check_true "missing file is a typed error"
    (match Census.resume path with Error _ -> true | Ok _ -> false)

(* --- cooperative worker mode --- *)

let test_work_single_process () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let reference = fresh_path () and path = fresh_path () in
  Fun.protect
    ~finally:(fun () ->
      cleanup reference;
      cleanup path)
    (fun () ->
      ignore
        (complete_exn
           (Census.run_sharded ~shard_size:11 ~checkpoint:reference game));
      match Census.work ~owner:"t" ~shard_size:11 ~seed:game path with
      | Ok (Census.Complete c) ->
          check_int "all equilibria" 30 c.Census.equilibria;
          Alcotest.(check string)
            "worker commit matches the sharded run" (read_bytes reference)
            (read_bytes path)
      | Ok (Census.Partial _) -> Alcotest.fail "unlimited worker degraded"
      | Error e -> Alcotest.fail e)

(* Mechanism pin: certifying a profile prices its players through the
   deviation evaluator alone, never through a one-shot BFS.  The
   per-equilibrium statistics (diameter, isomorphism class) sweep with
   the scratch kernel, which bumps no [bfs.runs], so the counter must
   not move during a whole census; pricing refuted players through
   [Game.player_cost] again would run one BFS per refuted profile. *)
let test_snapshots_follow_equilibria () =
  let runs_during n =
    let game = Game.make Cost.Sum (Budget.unit_budgets n) in
    let before = Bbng_obs.Counter.find "bfs.runs" in
    let c = complete_exn (Census.run_sharded ~domains:1 game) in
    (c, Bbng_obs.Counter.find "bfs.runs" - before)
  in
  let c4, runs4 = runs_during 4 in
  let c5, runs5 = runs_during 5 in
  check_true "n=5 has more equilibria" (c5.Census.equilibria > c4.Census.equilibria);
  List.iter
    (fun (c, runs) ->
      check_int
        (Printf.sprintf "BFS runs over %d profiles" c.Census.total_profiles)
        0 runs)
    [ (c4, runs4); (c5, runs5) ]

let test_work_needs_a_plan () =
  let path = fresh_path () in
  check_true "no checkpoint and no seed is an error"
    (match Census.work path with Error _ -> true | Ok _ -> false)

let dead_pid () =
  (* a reaped child: guaranteed-dead pid that was recently real.
     (create_process, not fork — fork is unavailable once earlier
     suites have spawned domains) *)
  let pid =
    Unix.create_process "/bin/true" [| "true" |] Unix.stdin Unix.stdout
      Unix.stderr
  in
  ignore (Unix.waitpid [] pid);
  pid

let test_work_supersedes_stale_claim () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let plan = Census.make_plan ~shard_size:11 game in
      let key = Census.plan_key plan in
      let partial = Atomic_io.partial_path path in
      (* a worker claimed shards 0 and 3 and then was SIGKILLed *)
      write_lines partial
        [
          Json.to_string (Census.plan_row plan);
          Json.to_string (Census.claim_row ~key ~owner:"ghost" ~pid:(dead_pid ()) 0);
          Json.to_string (Census.claim_row ~key ~owner:"ghost" ~pid:(dead_pid ()) 3);
        ];
      let stale_before = Bbng_obs.Counter.find "census.claims_stale" in
      match Census.work ~owner:"t" path with
      | Ok (Census.Complete c) ->
          check_int "census completed over the stale claims" 30
            c.Census.equilibria;
          check_true "stale claims detected"
            (Bbng_obs.Counter.find "census.claims_stale" >= stale_before + 2);
          check_true "final committed" (Sys.file_exists path)
      | Ok (Census.Partial _) -> Alcotest.fail "worker degraded"
      | Error e -> Alcotest.fail e)

let test_work_own_claim_is_claimable () =
  (* a claim by this very process (e.g. a prior expired pass) must not
     deadlock the worker against itself *)
  let game = Game.make Cost.Sum (Budget.unit_budgets 3) in
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let plan = Census.make_plan ~shard_size:3 game in
      let key = Census.plan_key plan in
      write_lines
        (Atomic_io.partial_path path)
        [
          Json.to_string (Census.plan_row plan);
          Json.to_string
            (Census.claim_row ~key ~owner:"self" ~pid:(Unix.getpid ()) 0);
        ];
      match Census.work ~owner:"self" path with
      | Ok (Census.Complete c) -> check_int "completed" 2 c.Census.equilibria
      | Ok (Census.Partial _) -> Alcotest.fail "worker degraded"
      | Error e -> Alcotest.fail e)

let test_work_budget_expiry_is_partial () =
  let game = Game.make Cost.Sum (Budget.unit_budgets 4) in
  let path = fresh_path () in
  Fun.protect
    ~finally:(fun () -> cleanup path)
    (fun () ->
      let budget = Budgeted.create ~work_limit:60 () in
      match Census.work ~budget ~owner:"t" ~shard_size:9 ~seed:game path with
      | Ok (Census.Partial { census; unscanned; _ }) ->
          check_true "progress checkpointed"
            (Sys.file_exists (Atomic_io.partial_path path));
          let missing =
            List.fold_left (fun a (lo, hi) -> a + (hi - lo)) 0 unscanned
          in
          check_int "partition" census.Census.total_profiles
            (census.Census.scanned_profiles + missing)
      | Ok (Census.Complete _) -> Alcotest.fail "expected partial"
      | Error e -> Alcotest.fail e)

let suite =
  [
    case "unit n=3" test_unit3;
    slow_case "unit n=4" test_unit4;
    slow_case "representatives are Nash" test_representatives_are_nash;
    slow_case "PoA from census" test_poa;
    case "subcritical census" test_empty_census;
    case "limit respected" test_limit;
    case "summary prints" test_summary_prints;
    slow_case "sharded matches sequential" test_sharded_matches_run;
    prop_sharded_matches_run;
    case "census counters match the outcome" test_counters_match_outcome;
    case "one span per shard" test_spans_per_shard;
    case "plan shards partition the space" test_plan_shards_partition;
    case "make_plan guards" test_make_plan_guards;
    case "budget expiry: sequential partial" test_budget_partial_run;
    case "budget expiry: sharded partial" test_budget_partial_sharded;
    slow_case "checkpoint roundtrip" test_checkpoint_roundtrip;
    slow_case "budgeted checkpoint then resume" test_budgeted_checkpoint_then_resume;
    slow_case "truncation oracle: every prefix resumes identically"
      test_resume_truncation_oracle;
    prop_resume_survives_torn_tail;
    slow_case "duplicate shard rows dedup" test_resume_dedups_duplicate_shards;
    slow_case "alien instance rows skipped" test_resume_skips_alien_instance;
    case "resume missing file" test_resume_missing;
    slow_case "worker drains a checkpoint" test_work_single_process;
    case "worker needs a plan" test_work_needs_a_plan;
    case "snapshots follow equilibria, not profiles" test_snapshots_follow_equilibria;
    slow_case "stale claims superseded" test_work_supersedes_stale_claim;
    case "own claim is claimable" test_work_own_claim_is_claimable;
    case "worker budget expiry" test_work_budget_expiry_is_partial;
  ]
