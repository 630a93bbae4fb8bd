(* The BFS kernel against the legacy walker oracle: the flat CSR
   layout of [Undirected.t] itself, the scratch kernel entry, and qcheck
   oracles pinning the kernel's BFS and the iFUB diameter to the plain
   top-down walker over random gnp / tree / disconnected inputs. *)

open Helpers
module Bfs = Bbng_graph.Bfs
module Distances = Bbng_graph.Distances
module Generators = Bbng_graph.Generators

let test_structure () =
  let c = path5 in
  check_int "n" 5 (Undirected.n c);
  check_int "arcs = 2m" 8 (Array.length c.Undirected.targets);
  check_int_array "offsets" [| 0; 1; 3; 5; 7; 8 |] c.Undirected.offs;
  check_int "end degree" 1 (Undirected.degree c 0);
  check_int "middle degree" 2 (Undirected.degree c 2);
  let empty = Undirected.of_edges ~n:3 [] in
  check_int "edgeless arcs" 0 (Array.length empty.Undirected.targets);
  check_int "edgeless degree" 0 (Undirected.degree empty 1)

let test_bfs_into () =
  let dist = Array.make 5 9 and queue = Array.make 5 0 in
  check_int "popped" 5 (Bfs.distances_into path5 ~src:2 ~dist ~queue);
  check_int_array "distances" [| 2; 1; 0; 1; 2 |] dist;
  let dist = Array.make 6 9 and queue = Array.make 6 0 in
  check_int "popped stops at the component" 3
    (Bfs.distances_into two_triangles ~src:0 ~dist ~queue);
  check_int "unreachable sentinel" (-1) dist.(4)

let test_bfs_into_validation () =
  let dist = Array.make 5 0 and queue = Array.make 5 0 in
  Alcotest.check_raises "source out of range"
    (Invalid_argument "Bfs.distances_into: source 5 out of range [0,5)") (fun () ->
      ignore (Bfs.distances_into path5 ~src:5 ~dist ~queue));
  Alcotest.check_raises "short scratch"
    (Invalid_argument "Bfs.distances_into: scratch arrays shorter than n") (fun () ->
      ignore (Bfs.distances_into path5 ~src:0 ~dist:(Array.make 3 0) ~queue));
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Bfs.distances_from_set: empty source set") (fun () ->
      ignore (Bfs.distances_from_set path5 []));
  Alcotest.check_raises "multi-source out of range"
    (Invalid_argument "Bfs.distances_from_set: source 7 out of range [0,5)")
    (fun () -> ignore (Bfs.distances_from_set path5 [ 0; 7 ]))

let test_budget_expiry () =
  let module Budgeted = Bbng_obs.Budgeted in
  let dist = Array.make 5 0 and queue = Array.make 5 0 in
  let budget = Budgeted.create ~work_limit:0 () in
  check_int "first sweep finishes" 5
    (Bfs.distances_into ~budget path5 ~src:0 ~dist ~queue);
  Alcotest.check_raises "second trips at the checkpoint" Budgeted.Expired
    (fun () -> ignore (Bfs.distances_into ~budget path5 ~src:0 ~dist ~queue))

(* The oracles: same graphs through both engines.  random_gnp_of gives
   disconnected inputs often at these sizes, random_connected_of the
   dense small-world shape (where the sweep goes bottom-up), and
   random_tree the deep-levels shape (where it stays top-down). *)

let graphs_agree g =
  let n = Undirected.n g in
  let rows_ok = ref true in
  for u = 0 to n - 1 do
    if Bfs.distances g u <> Bbng_oracle.Bfs.legacy_distances g u then rows_ok := false
  done;
  let legacy_diam =
    Distances.fold_eccentricities g (fun a _ e -> max a e) 0
  in
  !rows_ok && Distances.diameter g = legacy_diam

let prop_csr_matches_legacy_gnp =
  qcheck "CSR == legacy on gnp (disconnected allowed)"
    (gnp_gen ~n_min:1 ~n_max:30) (fun input ->
      graphs_agree (random_gnp_of input))

let prop_csr_matches_legacy_connected =
  qcheck "CSR == legacy on connected gnp" (gnp_gen ~n_min:2 ~n_max:30)
    (fun input -> graphs_agree (random_connected_of input))

let prop_csr_matches_legacy_trees =
  qcheck "CSR == legacy on random trees" (gnp_gen ~n_min:1 ~n_max:40)
    (fun (n, seed) -> graphs_agree (Generators.random_tree (rng seed) n))

let prop_multi_source_matches_legacy =
  qcheck "CSR multi-source == per-source minimum"
    (gnp_gen ~n_min:2 ~n_max:20) (fun input ->
      let g = random_gnp_of input in
      let n = Undirected.n g in
      let sources = [ 0; n / 2; n - 1 ] in
      let multi = Bfs.distances_from_set g sources in
      let singles = List.map (Bbng_oracle.Bfs.legacy_distances g) sources in
      let ok = ref true in
      for v = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc d ->
              if d.(v) = Bfs.unreachable then acc
              else
                match acc with
                | None -> Some d.(v)
                | Some b -> Some (min b d.(v)))
            None singles
        in
        let expected = match best with None -> Bfs.unreachable | Some b -> b in
        if multi.(v) <> expected then ok := false
      done;
      !ok)

let suite =
  [
    case "snapshot structure" test_structure;
    case "bfs_into" test_bfs_into;
    case "bfs_into validation" test_bfs_into_validation;
    case "budget expiry" test_budget_expiry;
    prop_csr_matches_legacy_gnp;
    prop_csr_matches_legacy_connected;
    prop_csr_matches_legacy_trees;
    prop_multi_source_matches_legacy;
  ]
