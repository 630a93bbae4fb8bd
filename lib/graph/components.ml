type labelling = { label : int array; count : int }

(* Iterative DFS with an explicit stack; component ids are assigned in
   order of the smallest vertex they contain because the outer loop scans
   vertices increasingly. *)
let components_skip g skip =
  let n = Undirected.n g in
  let label = Array.make n (-1) and stack = Array.make (max n 1) 0 in
  let count = ref 0 in
  for start = 0 to n - 1 do
    if label.(start) = -1 && not skip.(start) then begin
      let id = !count in
      incr count;
      let top = ref 1 in
      stack.(0) <- start;
      label.(start) <- id;
      while !top > 0 do
        decr top;
        let u = stack.(!top) in
        for k = g.Undirected.offs.(u) to g.Undirected.offs.(u + 1) - 1 do
          let v = g.Undirected.targets.(k) in
          if label.(v) = -1 && not skip.(v) then begin
            label.(v) <- id;
            stack.(!top) <- v;
            incr top
          end
        done
      done
    end
  done;
  { label; count = !count }

let components g = components_skip g (Array.make (Undirected.n g) false)

let count g = (components g).count

let is_connected g = count g <= 1

let same_component g u v =
  let l = components g in
  l.label.(u) = l.label.(v)

let component_members l id =
  let acc = ref [] in
  for v = Array.length l.label - 1 downto 0 do
    if l.label.(v) = id then acc := v :: !acc
  done;
  !acc

let sizes l =
  let s = Array.make l.count 0 in
  Array.iter (fun id -> if id >= 0 then s.(id) <- s.(id) + 1) l.label;
  s

let is_connected_except g vs =
  let skip = Array.make (Undirected.n g) false in
  List.iter (fun v -> skip.(v) <- true) vs;
  (components_skip g skip).count <= 1
