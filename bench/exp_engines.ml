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
   and every cell prices all C(n-1, b) candidates per player. *)

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
  write_bench_report ~name:"engines"
    [
      ( "headline_speedup_n30_b2",
        match !headline with Some s -> Json.Float s | None -> Json.Null );
      ("results", Json.List cells);
    ]
