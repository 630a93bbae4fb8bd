open Helpers
module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected

let test_of_edges () =
  let g = Undirected.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ] in
  check_int "n" 4 (Undirected.n g);
  check_int "edges" 3 (Undirected.edge_count g);
  check_true "0-1" (Undirected.mem_edge g 0 1);
  check_true "symmetric" (Undirected.mem_edge g 1 0);
  check_false "0-3" (Undirected.mem_edge g 0 3)

let test_duplicate_edges_merge () =
  let g = Undirected.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1) ] in
  check_int "edge count deduped" 1 (Undirected.edge_count g);
  check_int_array "neighbors deduped" [| 1 |] (Undirected.neighbors g 0)

let test_of_digraph_brace_collapses () =
  let d = Digraph.of_arcs ~n:2 [ (0, 1); (1, 0) ] in
  let g = Undirected.of_digraph d in
  check_int "brace is one edge" 1 (Undirected.edge_count g)

let test_of_digraph_directions_dropped () =
  let d = Digraph.of_arcs ~n:3 [ (2, 0); (1, 2) ] in
  let g = Undirected.of_digraph d in
  check_true "0-2" (Undirected.mem_edge g 0 2);
  check_true "1-2" (Undirected.mem_edge g 1 2);
  check_false "0-1" (Undirected.mem_edge g 0 1)

let test_degrees () =
  check_int "star center" 6 (Undirected.degree star7 0);
  check_int "star leaf" 1 (Undirected.degree star7 3);
  check_int "max degree" 6 (Undirected.max_degree star7);
  check_int "min degree" 1 (Undirected.min_degree star7);
  check_int "path min" 1 (Undirected.min_degree path5);
  check_int "cycle uniform" 2 (Undirected.max_degree cycle6)

let test_edges_ordering () =
  let g = Undirected.of_edges ~n:4 [ (3, 2); (1, 0) ] in
  check_true "lexicographic edges" (Undirected.edges g = [ (0, 1); (2, 3) ])

let test_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Undirected: self-loop at 2")
    (fun () -> ignore (Undirected.of_edges ~n:3 [ (2, 2) ]))

let test_remove_vertices () =
  let g = Undirected.remove_vertices k5 [ 0 ] in
  check_int "edges after removal" 6 (Undirected.edge_count g);
  check_int "removed vertex isolated" 0 (Undirected.degree g 0);
  check_int "same n" 5 (Undirected.n g)

let test_complement () =
  let c = Undirected.complement path5 in
  check_int "complement edges" (5 * 4 / 2 - 4) (Undirected.edge_count c);
  check_false "adjacent pair dropped" (Undirected.mem_edge c 0 1);
  check_true "far pair added" (Undirected.mem_edge c 0 4)

let test_complement_of_complete_is_empty () =
  check_int "empty" 0 (Undirected.edge_count (Undirected.complement k5))

let prop_degree_sum =
  qcheck "handshake: sum of degrees = 2m" (gnp_gen ~n_min:1 ~n_max:15)
    (fun input ->
      let g = random_gnp_of input in
      let sum = ref 0 in
      for v = 0 to Undirected.n g - 1 do
        sum := !sum + Undirected.degree g v
      done;
      !sum = 2 * Undirected.edge_count g)

let prop_complement_involution =
  qcheck "complement twice is identity" (gnp_gen ~n_min:1 ~n_max:12)
    (fun input ->
      let g = random_gnp_of input in
      Undirected.equal g (Undirected.complement (Undirected.complement g)))

let prop_neighbors_symmetric =
  qcheck "adjacency is symmetric" (gnp_gen ~n_min:1 ~n_max:12)
    (fun input ->
      let g = random_gnp_of input in
      let ok = ref true in
      Undirected.iter_edges
        (fun u v ->
          if not (Undirected.mem_edge g v u) then ok := false)
        g;
      !ok)

(* The builder against a naive neighbour set: random edge lists with
   duplicate and reversed pairs (isolated vertices and n = 0, 1 come with
   the size range), and random digraphs with braces.  Every row must be
   the sorted, duplicate-free neighbour set, and the queries must agree
   with it. *)
let builder_gen =
  QCheck.make
    ~print:(fun (n, seed, digraph) ->
      Printf.sprintf "n=%d seed=%d digraph=%b" n seed digraph)
    QCheck.Gen.(
      triple
        (frequency [ (1, return 0); (1, return 1); (6, int_range 2 12) ])
        (int_range 0 10_000) bool)

let builder_input (n, seed, digraph) =
  let st = rng seed in
  let pairs = ref [] in
  if n >= 2 then
    if digraph then
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Random.State.int st 4 = 0 then pairs := (u, v) :: !pairs
        done
      done
    else
      for _ = 1 to Random.State.int st (3 * n) do
        let u = Random.State.int st n and v = Random.State.int st (n - 1) in
        let v = if v >= u then v + 1 else v in
        pairs := (u, v) :: !pairs;
        match Random.State.int st 3 with
        | 0 -> pairs := (u, v) :: !pairs
        | 1 -> pairs := (v, u) :: !pairs
        | _ -> ()
      done;
  let g =
    if digraph then Undirected.of_digraph (Digraph.of_arcs ~n !pairs)
    else Undirected.of_edges ~n !pairs
  in
  (g, !pairs)

let prop_builder_matches_naive =
  qcheck ~count:300 "builder rows == naive neighbour sets" builder_gen
    (fun ((n, _, _) as input) ->
      let g, pairs = builder_input input in
      let naive u =
        List.sort_uniq Int.compare
          (List.filter_map
             (fun (a, b) -> if a = u then Some b else if b = u then Some a else None)
             pairs)
      in
      let rows = Array.init n naive in
      let naive_edges =
        List.concat
          (List.init n (fun u ->
               List.filter_map (fun v -> if u < v then Some (u, v) else None) rows.(u)))
      in
      let ok = ref (Undirected.n g = n) in
      let check b = if not b then ok := false in
      for u = 0 to n - 1 do
        check (Array.to_list (Undirected.neighbors g u) = rows.(u));
        check (Undirected.degree g u = List.length rows.(u));
        for v = 0 to n - 1 do
          check (Undirected.mem_edge g u v = List.mem v rows.(u))
        done
      done;
      check (Undirected.edge_count g = List.length naive_edges);
      check (Undirected.edges g = naive_edges);
      check (g.Undirected.offs.(n) = Array.length g.Undirected.targets);
      check (Undirected.equal g (Undirected.of_edges ~n naive_edges));
      check
        (Undirected.equal g
           (Undirected.of_edges ~n (List.rev_map (fun (u, v) -> (v, u)) naive_edges)));
      (match naive_edges with
      | [] -> ()
      | _ :: rest -> check (not (Undirected.equal g (Undirected.of_edges ~n rest))));
      !ok)

let prop_of_out_neighbors_matches_realize =
  (* U(G) straight from the strategy rows equals U of the realized
     digraph, braces and isolated players included *)
  qcheck ~count:200 "of_out_neighbors == of_digraph (realize p)"
    (sparse_or_dense_budget_gen ~n_min:1 ~n_max:12) (fun input ->
      let module Strategy = Bbng_core.Strategy in
      let p = random_profile_of input in
      let rows = Array.init (Strategy.n p) (Strategy.strategy p) in
      let expected = Undirected.of_digraph (Strategy.realize p) in
      Undirected.equal (Undirected.of_out_neighbors rows) expected
      && Undirected.equal (Strategy.underlying p) expected)

let suite =
  [
    case "of_edges" test_of_edges;
    case "duplicate edges merge" test_duplicate_edges_merge;
    case "brace collapses to one edge" test_of_digraph_brace_collapses;
    case "directions dropped" test_of_digraph_directions_dropped;
    case "degrees" test_degrees;
    case "edges lexicographic" test_edges_ordering;
    case "rejects self-loop" test_rejects_self_loop;
    case "remove_vertices keeps indices" test_remove_vertices;
    case "complement" test_complement;
    case "complement of K5" test_complement_of_complete_is_empty;
    prop_degree_sum;
    prop_complement_involution;
    prop_neighbors_symmetric;
    prop_builder_matches_naive;
    prop_of_out_neighbors_matches_realize;
  ]
