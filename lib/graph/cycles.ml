let sole_out_neighbor g u =
  match Digraph.out_neighbors g u with
  | [| w |] -> w
  | a ->
      invalid_arg
        (Printf.sprintf "Cycles: vertex %d has out-degree %d, expected 1" u
           (Array.length a))

(* Rotates a cycle (given in arc order) so it starts at its smallest
   vertex, preserving arc order. *)
let canonical_rotation cycle =
  let smallest = List.fold_left min max_int cycle in
  let rec split before = function
    | [] -> assert false
    | x :: rest ->
        if x = smallest then (x :: rest) @ List.rev before
        else split (x :: before) rest
  in
  split [] cycle

let functional_cycle g v =
  let n = Digraph.n g in
  let on_path = Array.make n false in
  (* [path] holds visited vertices most-recent-first. *)
  let rec walk path u =
    if on_path.(u) then begin
      (* Vertices visited after [u] (the heads of [path] up to [u]) form
         the cycle, in reverse arc order. *)
      let rec collect acc = function
        | [] -> assert false
        | x :: rest -> if x = u then u :: acc else collect (x :: acc) rest
      in
      canonical_rotation (collect [] path)
    end
    else begin
      on_path.(u) <- true;
      walk (u :: path) (sole_out_neighbor g u)
    end
  in
  walk [] v

let functional_cycles g =
  let n = Digraph.n g in
  (* 0 = unvisited, 1 = on current walk, 2 = finished. *)
  let state = Array.make n 0 in
  let cycles = ref [] in
  for start = 0 to n - 1 do
    if state.(start) = 0 then begin
      let rec walk path u =
        match state.(u) with
        | 2 -> ()
        | 1 ->
            let rec collect acc = function
              | [] -> assert false
              | x :: rest -> if x = u then u :: acc else collect (x :: acc) rest
            in
            cycles := canonical_rotation (collect [] path) :: !cycles
        | _ ->
            state.(u) <- 1;
            walk (u :: path) (sole_out_neighbor g u)
      in
      walk [] start;
      (* Close out the walk: everything reachable from [start] is done. *)
      let rec finish u =
        if state.(u) = 1 then begin
          state.(u) <- 2;
          finish (sole_out_neighbor g u)
        end
      in
      finish start
    end
  done;
  List.sort compare !cycles

let distance_to_set g vs = Bfs.distances_from_set g vs

let is_unicyclic g =
  Undirected.n g >= 1
  && Components.is_connected g
  && Undirected.edge_count g = Undirected.n g

(* Shortest cycle through edge (u, v) = 1 + shortest u-v path avoiding
   that edge; the girth is the minimum over all edges. *)
let bfs_avoiding g ~skip_u ~skip_v ~src ~dst =
  let n = Undirected.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  let found = ref None in
  while !found = None && not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Undirected.iter_neighbors
      (fun v ->
        let skipped = (u = skip_u && v = skip_v) || (u = skip_v && v = skip_u) in
        if (not skipped) && dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          if v = dst then found := Some dist.(v) else Queue.add v queue
        end)
      g u
  done;
  !found

let girth g =
  let best = ref None in
  Undirected.iter_edges
    (fun u v ->
      match bfs_avoiding g ~skip_u:u ~skip_v:v ~src:u ~dst:v with
      | None -> ()
      | Some d ->
          let len = d + 1 in
          if (match !best with None -> true | Some b -> len < b) then
            best := Some len)
    g;
  !best
