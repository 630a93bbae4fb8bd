open Helpers
module Bfs = Bbng_graph.Bfs
module Undirected = Bbng_graph.Undirected

let test_path_distances () =
  check_int_array "from end" [| 0; 1; 2; 3; 4 |] (Bfs.distances path5 0);
  check_int_array "from middle" [| 2; 1; 0; 1; 2 |] (Bfs.distances path5 2)

let test_unreachable () =
  let d = Bfs.distances two_triangles 0 in
  check_int "own component" 1 d.(1);
  check_int "other component" Bfs.unreachable d.(3)

let test_distance_pairs () =
  check_int_option "path ends" (Some 4) (Bfs.distance path5 0 4);
  check_int_option "self" (Some 0) (Bfs.distance path5 3 3);
  check_int_option "disconnected" None (Bfs.distance two_triangles 0 5)

(* regression: the u = v early answer used to skip range validation,
   so distance g 99 99 on a small graph returned Some 0 *)
let test_distance_validates_before_fast_path () =
  Alcotest.check_raises "self out of range"
    (Invalid_argument "Bfs.distance: vertex 99 out of range [0,5)") (fun () ->
      ignore (Bfs.distance path5 99 99));
  Alcotest.check_raises "target out of range"
    (Invalid_argument "Bfs.distance: vertex 5 out of range [0,5)") (fun () ->
      ignore (Bfs.distance path5 0 5));
  Alcotest.check_raises "negative source"
    (Invalid_argument "Bfs.distance: vertex -1 out of range [0,5)") (fun () ->
      ignore (Bfs.distance path5 (-1) 3))

let test_cycle_distances () =
  check_int_array "cycle from 0" [| 0; 1; 2; 3; 2; 1 |] (Bfs.distances cycle6 0)

let test_multi_source () =
  let d = Bfs.distances_from_set path5 [ 0; 4 ] in
  check_int_array "two sources" [| 0; 1; 2; 1; 0 |] d

let test_multi_source_empty () =
  Alcotest.check_raises "empty sources"
    (Invalid_argument "Bfs.distances_from_set: empty source set") (fun () ->
      ignore (Bfs.distances_from_set path5 []))

let test_parents () =
  let p = Bfs.parents path5 2 in
  check_int "root parent is self" 2 p.(2);
  check_int "left chain" 2 p.(1);
  check_int "right chain" 3 p.(4)

let test_parents_unreachable () =
  let p = Bfs.parents two_triangles 0 in
  check_int "unreachable parent" (-1) p.(4)

let test_shortest_path () =
  (match Bfs.shortest_path path5 0 3 with
  | Some p -> check_int_list "path vertices" [ 0; 1; 2; 3 ] p
  | None -> Alcotest.fail "expected a path");
  check_true "self path" (Bfs.shortest_path path5 1 1 = Some [ 1 ]);
  check_true "no path" (Bfs.shortest_path two_triangles 0 3 = None)

let test_shortest_path_is_shortest () =
  match Bfs.shortest_path cycle6 0 3 with
  | Some p -> check_int "length" 4 (List.length p)
  | None -> Alcotest.fail "expected a path"

(* two shortest 0-4 paths, 0-1-5-4 and 0-2-3-4: parent(4) is 3, the
   smaller of its two neighbours at distance 2, whichever one a walker
   happens to reach first *)
let test_parents_smallest_index () =
  let g = Undirected.of_edges ~n:6 [ (0, 1); (0, 2); (1, 5); (2, 3); (3, 4); (5, 4) ] in
  let runs = Bbng_obs.Counter.find "bfs.runs" in
  let p = Bfs.parents g 0 in
  check_int_array "parents" [| 0; 0; 0; 2; 3; 1 |] p;
  check_int "one BFS run" 1 (Bbng_obs.Counter.find "bfs.runs" - runs)

let prop_parents_smallest_index =
  qcheck "parents = smallest neighbour one level closer"
    (gnp_gen ~n_min:1 ~n_max:15) (fun (n, seed) ->
      (* sparse enough that many inputs are disconnected *)
      let g = Bbng_graph.Generators.random_gnp (rng seed) ~n ~p:0.2 in
      let src = seed mod n in
      let d = Bfs.distances g src and p = Bfs.parents g src in
      let expected v =
        if v = src then src
        else if d.(v) = Bfs.unreachable then -1
        else
          Array.fold_left
            (fun acc u -> if d.(u) = d.(v) - 1 then min acc u else acc)
            max_int (Undirected.neighbors g v)
      in
      List.for_all (fun v -> p.(v) = expected v) (List.init n Fun.id))

let prop_distances_triangle_inequality =
  qcheck "edge endpoints differ by at most 1" (gnp_gen ~n_min:2 ~n_max:15)
    (fun input ->
      let g = random_gnp_of input in
      let ok = ref true in
      let d = Bfs.distances g 0 in
      Undirected.iter_edges
        (fun u v ->
          match (d.(u), d.(v)) with
          | -1, -1 -> ()
          | -1, _ | _, -1 -> ok := false
          | du, dv -> if abs (du - dv) > 1 then ok := false)
        g;
      !ok)

let prop_bfs_matches_path_length =
  qcheck "shortest_path length = distance" (gnp_gen ~n_min:2 ~n_max:12)
    (fun input ->
      let g = random_connected_of input in
      let n = Undirected.n g in
      let u = 0 and v = n - 1 in
      match (Bfs.distance g u v, Bfs.shortest_path g u v) with
      | Some d, Some p -> List.length p = d + 1
      | None, None -> true
      | _ -> false)

let prop_multi_source_is_min =
  qcheck "multi-source = min of single-source" (gnp_gen ~n_min:3 ~n_max:10)
    (fun input ->
      let g = random_gnp_of input in
      let n = Undirected.n g in
      let sources = [ 0; n - 1 ] in
      let multi = Bfs.distances_from_set g sources in
      let singles = List.map (Bfs.distances g) sources in
      let ok = ref true in
      for v = 0 to n - 1 do
        let best =
          List.fold_left
            (fun acc d ->
              if d.(v) = Bfs.unreachable then acc
              else match acc with None -> Some d.(v) | Some b -> Some (min b d.(v)))
            None singles
        in
        let expected = match best with None -> Bfs.unreachable | Some b -> b in
        if multi.(v) <> expected then ok := false
      done;
      !ok)

(* ?budget threads through every one-shot walker: the token's
   checkpoint precedes the traversal and the popped count is spent
   after it, so a work_limit:0 token lets the first traversal finish
   (tripping the token) and stops the second at its checkpoint. *)
let test_budget_threads_through_walkers () =
  let module Budgeted = Bbng_obs.Budgeted in
  let first_runs_second_trips name f =
    let budget = Budgeted.create ~work_limit:0 () in
    f budget;
    Alcotest.check_raises (name ^ ": second call trips") Budgeted.Expired
      (fun () -> f budget)
  in
  first_runs_second_trips "distance" (fun budget ->
      ignore (Bfs.distance ~budget path5 0 4));
  first_runs_second_trips "parents" (fun budget ->
      ignore (Bfs.parents ~budget path5 0));
  first_runs_second_trips "shortest_path" (fun budget ->
      ignore (Bfs.shortest_path ~budget path5 0 3));
  (* the u = v early answer never touches the token *)
  let budget = Budgeted.create ~work_limit:0 () in
  check_int_option "self distance" (Some 0) (Bfs.distance ~budget path5 3 3);
  check_int_option "token still fresh" (Some 4) (Bfs.distance ~budget path5 0 4);
  Alcotest.check_raises "then trips" Budgeted.Expired (fun () ->
      ignore (Bfs.distance ~budget path5 0 4))

let suite =
  [
    case "path distances" test_path_distances;
    case "unreachable sentinel" test_unreachable;
    case "pairwise distance" test_distance_pairs;
    case "pairwise distance validates range" test_distance_validates_before_fast_path;
    case "cycle distances" test_cycle_distances;
    case "multi-source" test_multi_source;
    case "multi-source empty raises" test_multi_source_empty;
    case "parents" test_parents;
    case "parents unreachable" test_parents_unreachable;
    case "shortest path" test_shortest_path;
    case "shortest path minimal" test_shortest_path_is_shortest;
    case "parents take the smallest-index parent" test_parents_smallest_index;
    case "budget threads through walkers" test_budget_threads_through_walkers;
    prop_distances_triangle_inequality;
    prop_bfs_matches_path_length;
    prop_multi_source_is_min;
    prop_parents_smallest_index;
  ]
