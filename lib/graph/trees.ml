let is_tree g =
  Undirected.n g >= 1
  && Undirected.edge_count g = Undirected.n g - 1
  && Components.is_connected g

let is_forest g =
  let l = Components.components g in
  (* A graph is a forest iff every component has (size - 1) edges, i.e.
     m = n_used - count where n_used counts all vertices. *)
  Undirected.edge_count g = Undirected.n g - l.count

type rooted = {
  root : int;
  parent : int array;
  depth : int array;
  order : int array;
}

let root_at g root =
  let parent = Bfs.parents g root in
  let depth = Bfs.distances g root in
  let n = Undirected.n g in
  let reachable = ref [] in
  (* BFS order = non-decreasing depth; a stable sort of reachable
     vertices by depth reconstructs it. *)
  for v = n - 1 downto 0 do
    if depth.(v) >= 0 then reachable := v :: !reachable
  done;
  let order = Array.of_list !reachable in
  let by_depth = Array.map (fun v -> (depth.(v), v)) order in
  Array.stable_sort compare by_depth;
  let order = Array.map snd by_depth in
  { root; parent; depth; order }

let subtree_sizes r =
  let n = Array.length r.parent in
  let sizes = Array.make n 0 in
  Array.iter (fun v -> sizes.(v) <- 1) r.order;
  (* Deepest first: each vertex pushes its accumulated size up to its
     parent. *)
  for i = Array.length r.order - 1 downto 0 do
    let v = r.order.(i) in
    if v <> r.root then sizes.(r.parent.(v)) <- sizes.(r.parent.(v)) + sizes.(v)
  done;
  sizes

let children r v =
  let acc = ref [] in
  for u = Array.length r.parent - 1 downto 0 do
    if u <> r.root && r.parent.(u) = v then acc := u :: !acc
  done;
  !acc

let height r = Array.fold_left max 0 r.depth

let tree_diameter_path g =
  if not (is_tree g) then invalid_arg "Trees.tree_diameter_path: not a tree";
  let a, _ = Distances.farthest g 0 in
  let b, _ = Distances.farthest g a in
  match Bfs.shortest_path g a b with
  | Some p -> p
  | None -> assert false (* a tree is connected *)

let path_attachment_sizes g path =
  let n = Undirected.n g in
  let path_arr = Array.of_list path in
  let len = Array.length path_arr in
  if len = 0 then invalid_arg "Trees.path_attachment_sizes: empty path";
  let on_path = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= n then invalid_arg "Trees.path_attachment_sizes: bad vertex";
      if on_path.(v) >= 0 then invalid_arg "Trees.path_attachment_sizes: repeated vertex";
      on_path.(v) <- i;
      if i > 0 && not (Undirected.mem_edge g path_arr.(i - 1) v) then
        invalid_arg "Trees.path_attachment_sizes: not a path of the graph")
    path_arr;
  (* Multi-source BFS from the path; each vertex inherits the path index
     of the source its BFS tree hangs from. *)
  let owner = Array.make n (-1) in
  Array.iteri (fun i v -> owner.(v) <- i) path_arr;
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  Array.iter
    (fun v ->
      dist.(v) <- 0;
      Queue.add v queue)
    path_arr;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Undirected.iter_neighbors
      (fun v ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          owner.(v) <- owner.(u);
          Queue.add v queue
        end)
      g u
  done;
  let a = Array.make len 0 in
  Array.iter (fun i -> if i >= 0 then a.(i) <- a.(i) + 1) owner;
  a

let leaves g =
  let acc = ref [] in
  for v = Undirected.n g - 1 downto 0 do
    if Undirected.degree g v = 1 then acc := v :: !acc
  done;
  !acc

let centers g =
  if not (is_tree g) then invalid_arg "Trees.centers: not a tree";
  let n = Undirected.n g in
  if n = 1 then [ 0 ]
  else begin
    (* Iteratively strip leaves until <= 2 vertices remain. *)
    let deg = Array.init n (Undirected.degree g) in
    let removed = Array.make n false in
    let frontier = ref [] in
    for v = n - 1 downto 0 do
      if deg.(v) = 1 then frontier := v :: !frontier
    done;
    let remaining = ref n in
    let current = ref !frontier in
    while !remaining > 2 do
      let next = ref [] in
      List.iter
        (fun v ->
          removed.(v) <- true;
          decr remaining;
          Undirected.iter_neighbors
            (fun u ->
              if not removed.(u) then begin
                deg.(u) <- deg.(u) - 1;
                if deg.(u) = 1 then next := u :: !next
              end)
            g v)
        !current;
      current := !next
    done;
    let acc = ref [] in
    for v = n - 1 downto 0 do
      if not removed.(v) then acc := v :: !acc
    done;
    !acc
  end
