(* Engine head-to-head: overlay-BFS vs distance-row exact deviation
   pricing on exhaustive candidate scans, each engine forced through
   [Exp_common.forced_engine_scan].

   Both engines are exact (the qcheck oracle in test_deviation_eval
   pins rows == bfs on random profiles), so the interesting output is
   the wall-clock ratio: the rows engine replaces one BFS per candidate
   strategy with one cached BFS row per candidate *target* plus an
   O(b n) min-combine per candidate, dropping the scan from
   O(C(n-1,b) (n+m)) to O(n (n+m) + C(n-1,b) b n).

   The circulant profiles (i -> {i+1..i+b} mod n) keep the scans
   comparable with the production searches: the diameter stays well
   above the Lemma 2.2 threshold, so neither pruning tier would fire
   and every cell prices all C(n-1, b) candidates per player.

   The b = 1 crossover sweep below sets the size at which
   [Deviation_eval.make] switches a unit player's context from one
   overlay BFS per candidate to the bit-parallel batch (63 candidates
   per BFS): both price every player of the same unit-budget profiles,
   exhaustively and up to the first improving candidate. *)

open Bbng_core
open Exp_common
module Table = Bbng_analysis.Table

let circulant ~n ~b =
  Strategy.make
    (Budget.uniform ~n ~budget:b)
    (Array.init n (fun i ->
         let s = Array.init b (fun k -> (i + k + 1) mod n) in
         Array.sort compare s;
         s))

let scan_all_players ~engine version profile =
  Array.init (Strategy.n profile) (forced_engine_scan ~engine version profile)

(* One player's b = 1 scan: every candidate in vertex order, or up to
   the first one that beats the current cost.  Returns the first
   cheapest candidate seen and its cost. *)
let unit_scan ~make ~first_improving version profile player =
  let ctx : Deviation_eval.t = make version profile ~player in
  let current = Deviation_eval.current_cost ctx in
  let buf = [| 0 |] and best = ref (max_int, -1) in
  (try
     for v = 0 to Strategy.n profile - 1 do
       if v <> player then begin
         buf.(0) <- v;
         let c = Deviation_eval.cost ctx buf in
         if c < fst !best then best := (c, v);
         if first_improving && c < current then raise Exit
       end
     done
   with Exit -> ());
  !best

(* Seconds per player scan: the best of three passes over every player
   of [profiles] (280 scans per pass at n = 7, one round of 300 at
   n = 300). *)
let time_unit_scans ~make ~first_improving version profiles =
  let pass () =
    List.concat_map
      (fun p ->
        List.init (Strategy.n p)
          (unit_scan ~make ~first_improving version p))
      profiles
  in
  let scans = List.fold_left (fun a p -> a + Strategy.n p) 0 profiles in
  let results, first = time_it pass in
  let best =
    List.fold_left
      (fun b _ -> Float.min b (snd (time_it pass)))
      first [ (); () ]
  in
  (results, best /. float_of_int scans)

(* The SUM equilibrium round-robin exact dynamics reach from [start]:
   the sweep's second profile family, next to the seeded random starts
   themselves.  Random unit-budget profiles are deep random mappings,
   the batch's worst case; the equilibria are the Θ(1)-diameter graphs
   of Section 4, where scans end.  Every player of an equilibrium scans
   in full, so only the random profiles get a first-improving row. *)
let sum_equilibrium_from start =
  let module D = Bbng_dynamics.Dynamics in
  D.final_profile
    (D.run (Game.make Cost.Sum (Strategy.budgets start))
       ~schedule:Bbng_dynamics.Schedule.Round_robin ~rule:D.Exact_best start)

let crossover () =
  subsection "b = 1 crossover: per-candidate overlay vs bit-parallel batch";
  let sizes = [ 7; 16; 32; 64; 128; 300 ] in
  let t =
    Table.make
      ~headers:
        ([ "version"; "profiles"; "scan" ]
        @ List.map (Printf.sprintf "n=%d") sizes
        @ [ "agree" ])
  in
  let module Json = Bbng_obs.Json in
  let overlay v p ~player =
    Deviation_eval.make ~engine:Deviation_eval.Bfs_overlay v p ~player
  in
  let batched v p ~player = Deviation_eval.make_batched v p ~player in
  let rows =
    List.concat_map
      (fun version ->
        [ (version, `Random, false); (version, `Random, true);
          (version, `Equilibrium, false) ])
      [ Cost.Sum; Cost.Max ]
  in
  let profiles =
    List.map
      (fun n ->
        let count = max 1 (min 40 (20_000 / (n * n))) in
        let random =
          List.init count (fun seed ->
              Strategy.random (rng (seed + 1)) (Budget.unit_budgets n))
        in
        (n, (random, List.map sum_equilibrium_from random)))
      sizes
  in
  let cells =
    List.concat_map
      (fun (version, family, first_improving) ->
        let family_name =
          match family with `Random -> "random" | `Equilibrium -> "equilibrium"
        in
        let scan = if first_improving then "first-improving" else "exhaustive" in
        let cells =
          List.map
            (fun n ->
              let random, equilibria = List.assoc n profiles in
              let profiles =
                match family with `Random -> random | `Equilibrium -> equilibria
              in
              let o, overlay_s =
                time_unit_scans ~make:overlay ~first_improving version profiles
              in
              let b, batch_s =
                time_unit_scans ~make:batched ~first_improving version profiles
              in
              (n, overlay_s, batch_s, o = b))
            sizes
        in
        let agree = List.for_all (fun (_, _, _, a) -> a) cells in
        Table.add_row t
          ([ Cost.version_name version; family_name; scan ]
          @ List.map
              (fun (_, o, b, _) -> Printf.sprintf "%.2fx" (o /. b))
              cells
          @ [ verdict_cell agree ]);
        List.map
          (fun (n, overlay_s, batch_s, agree) ->
            Json.Obj
              [
                ("version", Json.Str (Cost.version_name version));
                ("profiles", Json.Str family_name);
                ("scan", Json.Str scan);
                ("n", Json.Int n);
                ("overlay_s_per_player", Json.Float overlay_s);
                ("batch_s_per_player", Json.Float batch_s);
                ("agree", Json.Bool agree);
              ])
          cells)
      rows
  in
  Table.print t;
  note
    "cells: batch speedup = overlay time / batch time per player scan; Deviation_eval.make batches a b <= 1 context once n - 1 >= %d"
    Bbng_graph.Bit_bfs.width;
  cells

let run () =
  section "ENGINES — overlay-BFS vs distance-row exact deviation pricing";
  let t =
    Table.make
      ~headers:
        [ "version"; "n"; "b"; "candidates/player"; "bfs (s)"; "rows (s)";
          "speedup"; "agree" ]
  in
  let module Json = Bbng_obs.Json in
  let headline = ref None in
  let cells =
    List.map
      (fun (version, n, b) ->
        let profile = circulant ~n ~b in
        let candidates = Bbng_graph.Combinatorics.binomial (n - 1) b in
        let bfs_moves, bfs_s =
          time_it (fun () ->
              scan_all_players ~engine:Deviation_eval.Bfs_overlay version
                profile)
        in
        let rows_moves, rows_s =
          time_it (fun () ->
              scan_all_players ~engine:Deviation_eval.Rows version profile)
        in
        (* both engines are exact with the same deterministic scan
           order, so the per-player cheapest strategies must coincide *)
        let agree = bfs_moves = rows_moves in
        let speedup = if rows_s > 0. then Some (bfs_s /. rows_s) else None in
        if version = Cost.Sum && n = 30 && b = 2 then headline := speedup;
        Table.add_row t
          [ Cost.version_name version; string_of_int n; string_of_int b;
            Bbng_graph.Combinatorics.count_to_string candidates;
            Printf.sprintf "%.4f" bfs_s; Printf.sprintf "%.4f" rows_s;
            (match speedup with Some s -> Printf.sprintf "%.1fx" s | None -> "-");
            verdict_cell agree ];
        Json.Obj
          [
            ("version", Json.Str (Cost.version_name version));
            ("n", Json.Int n);
            ("b", Json.Int b);
            ( "candidates_per_player",
              Json.Str (Bbng_graph.Combinatorics.count_to_string candidates) );
            ("bfs_s", Json.Float bfs_s);
            ("rows_s", Json.Float rows_s);
            ( "speedup",
              match speedup with Some s -> Json.Float s | None -> Json.Null );
            ("agree", Json.Bool agree);
          ])
      [
        (Cost.Sum, 20, 1);
        (Cost.Sum, 20, 2);
        (Cost.Sum, 30, 2);
        (Cost.Max, 30, 2);
        (Cost.Sum, 24, 3);
      ]
  in
  Table.print t;
  (match !headline with
  | Some s -> note "headline (SUM, n=30, b=2): rows engine %.1fx faster" s
  | None -> ());
  note
    "b = 1 is the rows engine's worst case (one row per candidate, no reuse across candidates beyond the base row)";
  let crossover = crossover () in
  write_bench_report ~name:"engines"
    [
      ("unit_crossover", Json.List crossover);
      ( "headline_speedup_n30_b2",
        match !headline with Some s -> Json.Float s | None -> Json.Null );
      ("results", Json.List cells);
    ]
