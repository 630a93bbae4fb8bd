(* The word-parallel multi-source BFS against one single-source BFS per
   source: after every level, a source's bit is in a vertex's seen word
   iff the vertex lies within the level, in its frontier word iff at
   exactly the level, and the frontier queue lists the vertices whose
   frontier word is nonzero. *)

open Helpers
module Bit_bfs = Bbng_graph.Bit_bfs

let csr_of g = (g.Undirected.offs, g.Undirected.targets)

let test_path_levels () =
  let offs, targets = csr_of path5 in
  let k = Bit_bfs.create ~offs ~targets in
  Bit_bfs.seed k 0 0b01;
  Bit_bfs.seed k 4 0b10;
  Bit_bfs.step k;
  check_int "level 1 frontier" 2 (Bit_bfs.count k);
  check_int "vertex 1 seen by source 0 only" 0b01 (Bit_bfs.seen k).(1);
  Bit_bfs.step k;
  check_int "vertex 2 reached by both at once" 0b11 (Bit_bfs.front k).(2);
  check_int "frontier queue" 1 (Bit_bfs.count k);
  Bit_bfs.step k;
  Bit_bfs.step k;
  check_int "level 4 still moves" 2 (Bit_bfs.count k);
  Bit_bfs.step k;
  check_int "exhausted" 0 (Bit_bfs.count k);
  check_int "every vertex seen by both" 0b11 (Bit_bfs.seen k).(3)

let test_prune_stops_relaying () =
  let offs, targets = csr_of path5 in
  let k = Bit_bfs.create ~offs ~targets in
  Bit_bfs.seed k 0 1;
  Bit_bfs.prune k 2;
  let exhaust () = while Bit_bfs.step k; Bit_bfs.count k > 0 do () done in
  exhaust ();
  check_int "before the pruned vertex" 1 (Bit_bfs.seen k).(1);
  check_int "beyond it" 0 (Bit_bfs.seen k).(3);
  Bit_bfs.clear k;
  Bit_bfs.seed k 0 1;
  exhaust ();
  check_int "clear forgets the pruning" 1 (Bit_bfs.seen k).(4)

let prop_matches_single_source =
  qcheck ~count:150 "bit-parallel BFS == one BFS per source"
    (gnp_gen ~n_min:1 ~n_max:90) (fun (n, seed) ->
      let st = rng seed in
      let p = if seed mod 2 = 0 then Float.min 1. (1.5 /. float_of_int n) else 0.1 in
      let g = Bbng_graph.Generators.random_gnp st ~n ~p in
      (* one vertex is removed by pruning it up front *)
      let removed = Random.State.int st n in
      let g =
        Undirected.of_edges ~n
          (List.filter (fun (u, v) -> u <> removed && v <> removed) (Undirected.edges g))
      in
      let sources =
        List.filteri
          (fun i v -> i < Bit_bfs.width && v <> removed)
          (List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id))
      in
      let dist = List.map (fun s -> Bbng_graph.Bfs.distances g s) sources in
      let offs, targets = csr_of g in
      let k = Bit_bfs.create ~offs ~targets in
      (* reuse across a clear must not leak the first traversal *)
      List.iteri (fun j s -> Bit_bfs.seed k ((s + 1) mod n) (1 lsl j)) sources;
      Bit_bfs.step k;
      Bit_bfs.clear k;
      List.iteri (fun j s -> Bit_bfs.seed k s (1 lsl j)) sources;
      Bit_bfs.prune k removed;
      let level_ok level =
        let seen = Bit_bfs.seen k and front = Bit_bfs.front k in
        let queued = Array.make n false in
        for i = 0 to Bit_bfs.count k - 1 do
          queued.((Bit_bfs.queue k).(i)) <- true
        done;
        List.for_all
          (fun v ->
            v = removed
            || (front.(v) = 0 || queued.(v))
               && List.for_all Fun.id
                    (List.mapi
                       (fun j d ->
                         let bit = 1 lsl j in
                         let within = d.(v) >= 0 && d.(v) <= level in
                         (seen.(v) land bit <> 0) = within
                         && (front.(v) land bit <> 0) = (d.(v) = level))
                       dist))
          (List.init n Fun.id)
      in
      let rec run level =
        level_ok level
        && (Bit_bfs.step k;
            Bit_bfs.count k = 0 || run (level + 1))
      in
      run 0)

let suite =
  [
    case "levels on a path" test_path_levels;
    case "prune stops relaying" test_prune_stops_relaying;
    prop_matches_single_source;
  ]
