type t = {
  n : int;
  offs : int array;    (* length n + 1; offs.(0) = 0, offs.(n) = 2m *)
  targets : int array; (* length 2m; row u = [offs.(u), offs.(u+1)) *)
}

let check_vertex n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Undirected: vertex %d out of range [0,%d)" u n)

(* [iter add] must call [add u v] once per edge (duplicates and both
   orientations allowed) and give the same calls on each of its two
   runs: the first counts row lengths, the second fills the rows.  Each
   row is then insertion-sorted in place and compacted leftwards over
   its duplicates.  [of_digraph], [of_out_neighbors], [remove_vertices]
   and [complement] visit sources in increasing order, which fills each
   row as at most three increasing runs, so the sort is close to linear
   there.  No per-vertex allocation: the only arrays are [offs],
   [targets] and the fill cursors. *)
let build n iter =
  let offs = Array.make (n + 1) 0 in
  iter (fun u v ->
      check_vertex n u;
      check_vertex n v;
      if u = v then invalid_arg (Printf.sprintf "Undirected: self-loop at %d" u);
      offs.(u + 1) <- offs.(u + 1) + 1;
      offs.(v + 1) <- offs.(v + 1) + 1);
  for u = 1 to n do
    offs.(u) <- offs.(u) + offs.(u - 1)
  done;
  let targets = Array.make offs.(n) 0 in
  let fill = Array.sub offs 0 n in
  iter (fun u v ->
      targets.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      targets.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1);
  let w = ref 0 in
  for u = 0 to n - 1 do
    let lo = offs.(u) and hi = offs.(u + 1) in
    for i = lo + 1 to hi - 1 do
      let x = targets.(i) in
      let j = ref (i - 1) in
      while !j >= lo && targets.(!j) > x do
        targets.(!j + 1) <- targets.(!j);
        decr j
      done;
      targets.(!j + 1) <- x
    done;
    (* the write cursor never passes the read cursor: w <= i *)
    offs.(u) <- !w;
    for i = lo to hi - 1 do
      let x = targets.(i) in
      if !w = offs.(u) || targets.(!w - 1) <> x then begin
        targets.(!w) <- x;
        incr w
      end
    done
  done;
  offs.(n) <- !w;
  let targets =
    if !w = Array.length targets then targets else Array.sub targets 0 !w
  in
  { n; offs; targets }

let of_digraph g = build (Digraph.n g) (fun add -> Digraph.iter_arcs add g)

let of_out_neighbors out =
  build (Array.length out) (fun add ->
      Array.iteri (fun u row -> Array.iter (fun v -> add u v) row) out)

let of_edges ~n edges =
  if n < 0 then invalid_arg "Undirected.of_edges: negative n";
  build n (fun add -> List.iter (fun (u, v) -> add u v) edges)

let n g = g.n
let edge_count g = Array.length g.targets / 2

let degree g u =
  check_vertex g.n u;
  g.offs.(u + 1) - g.offs.(u)

let neighbors g u = Array.sub g.targets g.offs.(u) (degree g u)

let iter_neighbors f g u =
  check_vertex g.n u;
  for k = g.offs.(u) to g.offs.(u + 1) - 1 do
    f g.targets.(k)
  done

let max_degree g =
  let m = ref 0 in
  for u = 0 to g.n - 1 do
    m := max !m (g.offs.(u + 1) - g.offs.(u))
  done;
  !m

let min_degree g =
  if g.n = 0 then 0
  else begin
    let m = ref max_int in
    for u = 0 to g.n - 1 do
      m := min !m (g.offs.(u + 1) - g.offs.(u))
    done;
    !m
  end

(* binary search of row u *)
let mem_row g u x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      let y = g.targets.(mid) in
      if y = x then true else if y < x then go (mid + 1) hi else go lo mid
  in
  go g.offs.(u) g.offs.(u + 1)

let mem_edge g u v =
  check_vertex g.n u;
  check_vertex g.n v;
  mem_row g u v

let iter_edges f g =
  for u = 0 to g.n - 1 do
    for k = g.offs.(u) to g.offs.(u + 1) - 1 do
      let v = g.targets.(k) in
      if u < v then f u v
    done
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let remove_vertices g vs =
  let dead = Array.make g.n false in
  List.iter (fun v -> check_vertex g.n v; dead.(v) <- true) vs;
  build g.n (fun add ->
      iter_edges (fun u v -> if not dead.(u) && not dead.(v) then add u v) g)

let complement g =
  build g.n (fun add ->
      for u = 0 to g.n - 1 do
        for v = u + 1 to g.n - 1 do
          if not (mem_row g u v) then add u v
        done
      done)

let equal g1 g2 = g1.n = g2.n && g1.offs = g2.offs && g1.targets = g2.targets

let pp ppf g =
  Format.fprintf ppf "n=%d;" g.n;
  iter_edges (fun u v -> Format.fprintf ppf " %d-%d" u v) g

let to_string g = Format.asprintf "%a" pp g
