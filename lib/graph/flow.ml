(* Adjacency is a growable edge list per node; each edge stores its
   reverse twin's index so residual updates are O(1).  Classic Dinic:
   BFS level graph + DFS blocking flow. *)

type edge = { dst : int; mutable cap : int; rev : int }

type t = {
  n : int;
  adj : edge array ref array;  (* poor man's growable arrays *)
  len : int array;
}

let create n =
  if n < 0 then invalid_arg "Flow.create: negative n";
  { n; adj = Array.init n (fun _ -> ref [||]); len = Array.make n 0 }

let push t u e =
  let a = !(t.adj.(u)) in
  let l = t.len.(u) in
  if l = Array.length a then begin
    let bigger = Array.make (max 4 (2 * l)) e in
    Array.blit a 0 bigger 0 l;
    t.adj.(u) := bigger
  end;
  !(t.adj.(u)).(l) <- e;
  t.len.(u) <- l + 1

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Flow.add_edge: node out of range";
  if capacity < 0 then invalid_arg "Flow.add_edge: negative capacity";
  push t src { dst; cap = capacity; rev = t.len.(dst) };
  push t dst { dst = src; cap = 0; rev = t.len.(src) - 1 }

let bfs_levels t source =
  let level = Array.make t.n (-1) in
  let queue = Queue.create () in
  level.(source) <- 0;
  Queue.add source queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    let edges = !(t.adj.(u)) in
    for i = 0 to t.len.(u) - 1 do
      let e = edges.(i) in
      if e.cap > 0 && level.(e.dst) = -1 then begin
        level.(e.dst) <- level.(u) + 1;
        Queue.add e.dst queue
      end
    done
  done;
  level

let rec dfs_push t level iter u sink pushed =
  if u = sink then pushed
  else begin
    let result = ref 0 in
    while !result = 0 && iter.(u) < t.len.(u) do
      let e = !(t.adj.(u)).(iter.(u)) in
      if e.cap > 0 && level.(e.dst) = level.(u) + 1 then begin
        let got = dfs_push t level iter e.dst sink (min pushed e.cap) in
        if got > 0 then begin
          e.cap <- e.cap - got;
          let back = !(t.adj.(e.dst)).(e.rev) in
          back.cap <- back.cap + got;
          result := got
        end
        else iter.(u) <- iter.(u) + 1
      end
      else iter.(u) <- iter.(u) + 1
    done;
    !result
  end

let max_flow t ~source ~sink =
  if source = sink then invalid_arg "Flow.max_flow: source = sink";
  let total = ref 0 in
  let continue = ref true in
  while !continue do
    let level = bfs_levels t source in
    if level.(sink) = -1 then continue := false
    else begin
      let iter = Array.make t.n 0 in
      let rec drain () =
        let got = dfs_push t level iter source sink max_int in
        if got > 0 then begin
          total := !total + got;
          drain ()
        end
      in
      drain ()
    end
  done;
  !total

let min_cut_side t ~source =
  let level = bfs_levels t source in
  Array.map (fun l -> if l >= 0 then 1 else 0) level
