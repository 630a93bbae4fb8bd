open Helpers
module Iso = Bbng_graph.Isomorphism
module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected
module Generators = Bbng_graph.Generators

let relabel_digraph g perm =
  Digraph.of_arcs ~n:(Digraph.n g)
    (List.map (fun (u, v) -> (perm.(u), perm.(v))) (Digraph.arcs g))

let random_perm st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let test_identical () =
  check_true "self digraph"
    (Iso.digraph_isomorphic (Generators.tripod 2) (Generators.tripod 2))

let test_relabelled_path () =
  let p = Generators.directed_path 5 in
  let g = relabel_digraph p [| 4; 2; 0; 1; 3 |] in
  check_true "path relabelled" (Iso.digraph_isomorphic p g)

let test_non_isomorphic_same_degrees () =
  (* a directed C6 vs two directed triangles: every vertex has in- and
     out-degree 1 in both *)
  let two_triangles =
    Digraph.of_arcs ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  check_false "C6 vs 2xC3"
    (Iso.digraph_isomorphic (Generators.directed_cycle 6) two_triangles)

let test_different_sizes () =
  check_false "sizes"
    (Iso.digraph_isomorphic (Generators.directed_path 5)
       (Generators.directed_cycle 6));
  check_false "arc counts"
    (Iso.digraph_isomorphic (Generators.directed_path 5)
       (Generators.directed_cycle 5))

let test_direction_matters () =
  (* out-star vs in-star: same underlying graph, opposite ownership *)
  let o = Generators.out_star 4 and i = Generators.in_star 4 in
  check_false "digraphs differ" (Iso.digraph_isomorphic o i)

let prop_relabel_preserves_iso_digraph =
  qcheck "random relabellings are isomorphic (digraph)"
    (gnp_gen ~n_min:2 ~n_max:9) (fun (n, seed) ->
      let st = rng seed in
      let u = Generators.random_connected_gnp st ~n ~p:0.4 in
      let g = Digraph.of_arcs ~n (Undirected.edges u) in
      let h = relabel_digraph g (random_perm st n) in
      Iso.digraph_isomorphic g h)

let prop_edge_count_separates =
  qcheck "graphs with different edge counts never isomorphic"
    (gnp_gen ~n_min:3 ~n_max:9) (fun (n, seed) ->
      let st = rng seed in
      let g = Digraph.of_arcs ~n (Undirected.edges (Generators.random_gnp st ~n ~p:0.4)) in
      (* add one missing arc if any exists *)
      let missing = ref None in
      for u = n - 1 downto 0 do
        for v = n - 1 downto 0 do
          if u <> v && not (Digraph.mem_arc g u v) then missing := Some (u, v)
        done
      done;
      match !missing with
      | None -> true (* complete digraph: skip *)
      | Some a -> not (Iso.digraph_isomorphic g (Digraph.of_arcs ~n (a :: Digraph.arcs g))))

let suite =
  [
    case "identical graphs" test_identical;
    case "relabelled path" test_relabelled_path;
    case "same degrees, not isomorphic" test_non_isomorphic_same_degrees;
    case "different sizes" test_different_sizes;
    case "arc direction matters" test_direction_matters;
    prop_relabel_preserves_iso_digraph;
    prop_edge_count_separates;
  ]
