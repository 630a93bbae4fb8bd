let unreachable = -1

let c_runs = Bbng_obs.Counter.make "bfs.runs"
let c_popped = Bbng_obs.Counter.make "bfs.vertices_popped"
let h_popped = Bbng_obs.Histogram.make "bfs.popped_per_run"

(* batched: two atomic adds per traversal, none per vertex; the
   per-run distribution only when observability is on (one extra
   atomic load otherwise) *)
let observe popped =
  Bbng_obs.Counter.bump c_runs;
  Bbng_obs.Counter.add c_popped popped;
  if Bbng_obs.Span.enabled () then Bbng_obs.Histogram.record h_popped popped

(* --- the kernel: a direction-optimizing (Beamer-style) level-
   synchronous BFS over the graph's own CSR arrays.

   Top-down levels pop the frontier segment of [queue] and scan its
   arcs; once the frontier's arc count dominates the arcs still leaving
   unvisited vertices (the small-world endgame, where a classic BFS
   spends most of its arc visits re-probing already-visited targets),
   the sweep flips bottom-up: the unvisited pool — packed into the tail
   of [queue], which is exact because visited + unvisited = n — probes
   its own arcs and stops at the first parent in the current level.

   Budget accounting is per-traversal: one checkpoint before the work
   (an expired token stops a search between BFS runs, never mid-run —
   a single run is O(n + m) and bounded) and one spend of the popped
   count after, so work units line up with vertex visits across every
   evaluator.

   All accesses are unsafe: [queue]/[dist] only ever hold vertices the
   seeding and the loop itself put in range, and [offs]/[targets]
   indices come from [offs] monotonicity.  The kernel allocates nothing
   (pinned by the bench's zero minor-words line). *)

(* switch to bottom-up when frontier_arcs * alpha > unvisited_arcs *)
let alpha = 4

let sweep g budget ~dist ~queue ~tail =
  let offs = g.Undirected.offs and targets = g.Undirected.targets in
  let n = Undirected.n g in
  let lo = ref 0 and tl = ref tail in
  let level = ref 0 in
  let frontier_arcs = ref 0 and unvisited_arcs = ref (Array.length targets) in
  for i = 0 to tail - 1 do
    let u = Array.unsafe_get queue i in
    let d = Array.unsafe_get offs (u + 1) - Array.unsafe_get offs u in
    frontier_arcs := !frontier_arcs + d;
    unvisited_arcs := !unvisited_arcs - d
  done;
  let bottom_up = ref false in
  while !lo < !tl do
    if (not !bottom_up) && !frontier_arcs * alpha > !unvisited_arcs then begin
      (* flip: pack every unvisited vertex into queue.[tl, n) *)
      bottom_up := true;
      let w = ref !tl in
      for v = 0 to n - 1 do
        if Array.unsafe_get dist v < 0 then begin
          Array.unsafe_set queue !w v;
          incr w
        end
      done
    end;
    let hi = !tl in
    let du1 = !level + 1 in
    if !bottom_up then begin
      (* examine the pool queue.[hi, n); vertices adjacent to the
         current level move (swap-compacted) into the next frontier
         segment queue.[hi, w) *)
      let w = ref hi in
      for j = hi to n - 1 do
        let v = Array.unsafe_get queue j in
        let k0 = Array.unsafe_get offs v in
        let k1 = Array.unsafe_get offs (v + 1) in
        let k = ref k0 and found = ref false in
        while (not !found) && !k < k1 do
          let u = Array.unsafe_get targets !k in
          if Array.unsafe_get dist u = !level then found := true else incr k
        done;
        if !found then begin
          Array.unsafe_set dist v du1;
          Array.unsafe_set queue j (Array.unsafe_get queue !w);
          Array.unsafe_set queue !w v;
          incr w
        end
      done;
      tl := !w
    end
    else begin
      let next_arcs = ref 0 in
      for i = !lo to hi - 1 do
        let u = Array.unsafe_get queue i in
        let k0 = Array.unsafe_get offs u in
        let k1 = Array.unsafe_get offs (u + 1) in
        for k = k0 to k1 - 1 do
          let v = Array.unsafe_get targets k in
          if Array.unsafe_get dist v < 0 then begin
            Array.unsafe_set dist v du1;
            Array.unsafe_set queue !tl v;
            incr tl;
            let d = Array.unsafe_get offs (v + 1) - Array.unsafe_get offs v in
            next_arcs := !next_arcs + d;
            unvisited_arcs := !unvisited_arcs - d
          end
        done
      done;
      frontier_arcs := !next_arcs
    end;
    lo := hi;
    incr level
  done;
  Bbng_obs.Budgeted.spend budget !lo;
  !lo

let distances_into ?(budget = Bbng_obs.Budgeted.unlimited) g ~src ~dist ~queue =
  let n = Undirected.n g in
  if src < 0 || src >= n then
    invalid_arg
      (Printf.sprintf "Bfs.distances_into: source %d out of range [0,%d)" src n);
  if Array.length dist < n || Array.length queue < n then
    invalid_arg "Bfs.distances_into: scratch arrays shorter than n";
  Bbng_obs.Budgeted.checkpoint budget;
  Array.fill dist 0 n unreachable;
  dist.(src) <- 0;
  queue.(0) <- src;
  sweep g budget ~dist ~queue ~tail:1

(* The one-shot entry points below take their frontier queue from
   per-domain scratch grown to the largest n seen, so a steady-state
   call allocates exactly its result row. *)

let queue_key : int array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let queue_for n =
  let cell = Domain.DLS.get queue_key in
  if Array.length !cell < n then cell := Array.make (max n 16) 0;
  !cell

let distances ?budget g src =
  let n = Undirected.n g in
  let dist = Array.make (max n 1) unreachable in
  let popped = distances_into ?budget g ~src ~dist ~queue:(queue_for n) in
  observe popped;
  dist

let distances_from_set ?(budget = Bbng_obs.Budgeted.unlimited) g sources =
  if sources = [] then invalid_arg "Bfs.distances_from_set: empty source set";
  let n = Undirected.n g in
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg
          (Printf.sprintf "Bfs.distances_from_set: source %d out of range [0,%d)" s n))
    sources;
  let dist = Array.make (max n 1) unreachable in
  let queue = queue_for n in
  Bbng_obs.Budgeted.checkpoint budget;
  let tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    sources;
  let popped = sweep g budget ~dist ~queue ~tail:!tail in
  observe popped;
  dist

let distance ?budget g u v =
  (* validate before the u = v fast path: [distance g 99 99] on a
     3-vertex graph must raise like every other entry point, not
     silently answer [Some 0] *)
  let n = Undirected.n g in
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Bfs.distance: vertex %d out of range [0,%d)" u n);
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Bfs.distance: vertex %d out of range [0,%d)" v n);
  if u = v then Some 0
  else
    let dist = distances ?budget g u in
    if dist.(v) = unreachable then None else Some dist.(v)

(* rows are sorted, so the first neighbour one level closer is the
   smallest-index parent *)
let parents ?budget g src =
  let dist = distances ?budget g src in
  let offs = g.Undirected.offs and targets = g.Undirected.targets in
  Array.mapi
    (fun v d ->
      if d = unreachable then -1
      else if d = 0 then v
      else begin
        let k = ref offs.(v) in
        while dist.(targets.(!k)) <> d - 1 do
          incr k
        done;
        targets.(!k)
      end)
    dist

let shortest_path ?budget g u v =
  let parent = parents ?budget g u in
  if parent.(v) = -1 then None
  else begin
    let rec walk acc x = if x = u then u :: acc else walk (x :: acc) parent.(x) in
    Some (walk [] v)
  end
