type t = {
  n : int;
  out : int array array;
  in_ : int array array;
  arc_count : int;
}

let check_vertex n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Digraph: vertex %d out of range [0,%d)" u n)

(* Sorts [a] in place and checks it is duplicate-free and a valid target
   set for [u]: no self-loop, all in range. *)
let normalize_targets n u a =
  Array.sort Int.compare a;
  Array.iteri
    (fun i v ->
      check_vertex n v;
      if v = u then invalid_arg (Printf.sprintf "Digraph: self-loop at %d" u);
      if i > 0 && a.(i - 1) = v then
        invalid_arg (Printf.sprintf "Digraph: duplicate arc %d->%d" u v))
    a;
  a

let of_out_neighbors out =
  let n = Array.length out in
  let out = Array.mapi (fun u a -> normalize_targets n u (Array.copy a)) out in
  let in_deg = Array.make n 0 in
  Array.iter (Array.iter (fun v -> in_deg.(v) <- in_deg.(v) + 1)) out;
  let in_ = Array.map (fun d -> Array.make d 0) in_deg in
  let fill = Array.make n 0 in
  (* Tails are visited in increasing order, so each in_ array ends up
     sorted without an extra pass. *)
  Array.iteri
    (fun u targets ->
      Array.iter
        (fun v ->
          in_.(v).(fill.(v)) <- u;
          fill.(v) <- fill.(v) + 1)
        targets)
    out;
  let arc_count = Array.fold_left (fun acc a -> acc + Array.length a) 0 out in
  { n; out; in_; arc_count }

let create ~n =
  if n < 0 then invalid_arg "Digraph.create: negative n";
  { n; out = Array.make n [||]; in_ = Array.make n [||]; arc_count = 0 }

let of_arcs ~n arcs =
  if n < 0 then invalid_arg "Digraph.of_arcs: negative n";
  let deg = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      check_vertex n u;
      check_vertex n v;
      deg.(u) <- deg.(u) + 1)
    arcs;
  let out = Array.map (fun d -> Array.make d 0) deg in
  let fill = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      out.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1)
    arcs;
  of_out_neighbors out

let n g = g.n
let arc_count g = g.arc_count
let out_neighbors g u = check_vertex g.n u; g.out.(u)
let in_neighbors g u = check_vertex g.n u; g.in_.(u)
let out_degree g u = Array.length (out_neighbors g u)
let in_degree g u = Array.length (in_neighbors g u)
let degree g u = out_degree g u + in_degree g u

(* Binary search in a sorted int array. *)
let mem_sorted a x =
  let rec go lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) = x then true
      else if a.(mid) < x then go (mid + 1) hi
      else go lo mid
  in
  go 0 (Array.length a)

let mem_arc g u v =
  check_vertex g.n u;
  check_vertex g.n v;
  mem_sorted g.out.(u) v

let iter_arcs f g =
  Array.iteri (fun u targets -> Array.iter (fun v -> f u v) targets) g.out

let arcs g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    let targets = g.out.(u) in
    for i = Array.length targets - 1 downto 0 do
      acc := (u, targets.(i)) :: !acc
    done
  done;
  !acc

let is_brace g u v = mem_arc g u v && mem_arc g v u

let braces g =
  let acc = ref [] in
  iter_arcs (fun u v -> if u < v && mem_sorted g.out.(v) u then acc := (u, v) :: !acc) g;
  List.rev !acc

let in_some_brace g u =
  Array.exists (fun v -> mem_sorted g.out.(v) u) g.out.(u)

let reverse g =
  (* in_ arrays are already sorted, so they are valid out-neighbor sets. *)
  { n = g.n; out = Array.map Array.copy g.in_; in_ = Array.map Array.copy g.out;
    arc_count = g.arc_count }

let replace_out_neighbors g u targets =
  check_vertex g.n u;
  let out = Array.copy g.out in
  out.(u) <- targets;
  of_out_neighbors out

let equal g1 g2 =
  g1.n = g2.n && g1.out = g2.out

let pp ppf g =
  Format.fprintf ppf "n=%d;" g.n;
  iter_arcs (fun u v -> Format.fprintf ppf " %d->%d" u v) g

let to_string g = Format.asprintf "%a" pp g
