(* Color refinement (1-dimensional Weisfeiler-Leman) + backtracking. *)

(* Refine an initial coloring until stable.  [signature colors v] must
   return a label-invariant description of v's neighborhood under the
   current coloring (e.g. the sorted list of neighbor colors). *)
let refine ~n ~initial ~signature =
  (* Color ids must be label-invariant so they are comparable across two
     different graphs: each round renumbers the distinct (old color,
     signature) keys in their natural sorted order.  By induction the
     keys are built from invariant values (initial colors are invariant
     quantities like degrees), so the sorted order — and hence the new
     ids — cannot depend on vertex labels. *)
  let colors = ref (Array.copy initial) in
  let changed = ref true in
  while !changed do
    let keys = Array.init n (fun v -> ((!colors).(v), signature !colors v)) in
    let distinct = List.sort_uniq compare (Array.to_list keys) in
    let table = Hashtbl.create 16 in
    List.iteri (fun i key -> Hashtbl.replace table key i) distinct;
    let next = Array.map (fun key -> Hashtbl.find table key) keys in
    changed := next <> !colors;
    colors := next
  done;
  !colors

let digraph_colors g =
  let n = Digraph.n g in
  refine ~n
    ~initial:(Array.init n (fun v -> (100_003 * Digraph.out_degree g v) + Digraph.in_degree g v))
    ~signature:(fun colors v ->
      let out = Array.map (fun u -> colors.(u)) (Digraph.out_neighbors g v) in
      let inn = Array.map (fun u -> colors.(u)) (Digraph.in_neighbors g v) in
      Array.sort Int.compare out;
      Array.sort Int.compare inn;
      (Array.to_list out, Array.to_list inn))

(* Multiset equality of color arrays: a cheap necessary condition. *)
let same_color_profile c1 c2 =
  let s1 = Array.copy c1 and s2 = Array.copy c2 in
  Array.sort Int.compare s1;
  Array.sort Int.compare s2;
  s1 = s2

(* Generic backtracking: map vertices of graph 1 (ordered rarest-color
   first) onto same-colored unused vertices of graph 2, checking
   [compatible u v mapping] against the partial map. *)
let backtrack ~n ~colors1 ~colors2 ~compatible =
  if not (same_color_profile colors1 colors2) then None
  else begin
    (* order: rarest colors first to fail fast *)
    let count = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        Hashtbl.replace count c (1 + Option.value ~default:0 (Hashtbl.find_opt count c)))
      colors1;
    let order = Array.init n Fun.id in
    Array.sort
      (fun a b ->
        compare
          (Hashtbl.find count colors1.(a), colors1.(a), a)
          (Hashtbl.find count colors1.(b), colors1.(b), b))
      order;
    let mapping = Array.make n (-1) in
    let used = Array.make n false in
    let rec go idx =
      if idx = n then true
      else begin
        let u = order.(idx) in
        let rec try_v v =
          if v >= n then false
          else if (not used.(v)) && colors2.(v) = colors1.(u) && compatible u v mapping
          then begin
            mapping.(u) <- v;
            used.(v) <- true;
            if go (idx + 1) then true
            else begin
              mapping.(u) <- -1;
              used.(v) <- false;
              try_v (v + 1)
            end
          end
          else try_v (v + 1)
        in
        try_v 0
      end
    in
    if go 0 then Some mapping else None
  end

let find_digraph_isomorphism g1 g2 =
  let n = Digraph.n g1 in
  if n <> Digraph.n g2 || Digraph.arc_count g1 <> Digraph.arc_count g2 then None
  else
    backtrack ~n ~colors1:(digraph_colors g1) ~colors2:(digraph_colors g2)
      ~compatible:(fun u v mapping ->
        let ok = ref true in
        for w = 0 to n - 1 do
          if mapping.(w) >= 0 then begin
            if Digraph.mem_arc g1 u w <> Digraph.mem_arc g2 v mapping.(w) then
              ok := false;
            if Digraph.mem_arc g1 w u <> Digraph.mem_arc g2 mapping.(w) v then
              ok := false
          end
        done;
        !ok)

let digraph_isomorphic g1 g2 = find_digraph_isomorphism g1 g2 <> None
