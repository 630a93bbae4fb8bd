(* A plain top-down walker over the graph's CSR rows: the oracle the
   direction-optimizing kernel ([Bbng_graph.Bfs]) is pinned against.
   Each vertex enters the queue at most once, so n slots suffice. *)

module Undirected = Bbng_graph.Undirected

let legacy_distances g src =
  let n = Undirected.n g in
  let offs = g.Undirected.offs and targets = g.Undirected.targets in
  let dist = Array.make n Bbng_graph.Bfs.unreachable in
  let queue = Array.make (max n 1) 0 in
  let head = ref 0 and tail = ref 1 in
  dist.(src) <- 0;
  queue.(0) <- src;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = offs.(u) to offs.(u + 1) - 1 do
      let v = targets.(k) in
      if dist.(v) = Bbng_graph.Bfs.unreachable then begin
        dist.(v) <- dist.(u) + 1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist
