open Bbng_core
module Undirected = Bbng_graph.Undirected

let swap_moves g v =
  let n = Undirected.n g in
  let moves = ref [] in
  Undirected.iter_neighbors
    (fun drop ->
      for add = n - 1 downto 0 do
        if add <> v && add <> drop && not (Undirected.mem_edge g v add) then
          moves := (drop, add) :: !moves
      done)
    g v;
  !moves

let apply_swap g v ~drop ~add =
  if not (Undirected.mem_edge g v drop) then
    invalid_arg "Basic_ncg.apply_swap: edge to drop is absent";
  if Undirected.mem_edge g v add || add = v then
    invalid_arg "Basic_ncg.apply_swap: edge to add is invalid";
  let edges =
    (v, add)
    :: List.filter
         (fun (a, b) -> not ((a = v && b = drop) || (a = drop && b = v)))
         (Undirected.edges g)
  in
  Undirected.of_edges ~n:(Undirected.n g) edges

let improving_swap version g v =
  let current = Cost.vertex_cost version g v in
  let rec scan = function
    | [] -> None
    | (drop, add) :: rest ->
        let g' = apply_swap g v ~drop ~add in
        let cost = Cost.vertex_cost version g' v in
        if cost < current then Some (drop, add, cost) else scan rest
  in
  scan (swap_moves g v)

let certify version g =
  let n = Undirected.n g in
  let rec go v =
    if v >= n then None
    else
      match improving_swap version g v with
      | Some (drop, add, cost) -> Some (v, drop, add, cost)
      | None -> go (v + 1)
  in
  go 0

let is_swap_equilibrium version g = certify version g = None

let bbg_nash_implies_basic_instability_witness version profile =
  certify version (Strategy.underlying profile)
