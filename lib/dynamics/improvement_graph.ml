open Bbng_core

type move_kind = Any_improvement | Best_only

type t = {
  profiles : Strategy.t array;
  arcs : (int * int) list;
  sinks : int list;
  has_cycle : bool;
  cycle_witness : int list option;
  longest_path_lower_bound : int;
}

(* Enumerate a player's strict improvements from [profile]; under
   Best_only, only the moves reaching the exact best-response cost. *)
let improving_successors kind game profile player =
  let n = Game.n game in
  let budget = Budget.get (Game.budgets game) player in
  let eval_ctx = Deviation_eval.make (Game.version game) profile ~player in
  let current = Deviation_eval.current_cost eval_ctx in
  let candidates = ref [] in
  Bbng_graph.Combinatorics.iter_combinations ~n:(n - 1) ~k:budget (fun c ->
      let targets = Array.map (fun i -> if i < player then i else i + 1) c in
      let cost = Deviation_eval.cost eval_ctx targets in
      if cost < current then candidates := (Array.copy targets, cost) :: !candidates);
  let chosen =
    match kind with
    | Any_improvement -> !candidates
    | Best_only ->
        let best =
          List.fold_left (fun acc (_, c) -> min acc c) max_int !candidates
        in
        List.filter (fun (_, c) -> c = best) !candidates
  in
  List.map
    (fun (targets, _) -> Strategy.with_strategy profile ~player ~targets)
    chosen

(* DFS cycle detection + longest path on the DAG (memoized). *)
let analyze_arcs node_count arcs =
  let succ = Array.make node_count [] in
  List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) arcs;
  (* colors: 0 white, 1 on stack, 2 done *)
  let color = Array.make node_count 0 in
  let parent = Array.make node_count (-1) in
  let cycle = ref None in
  let rec dfs u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if !cycle = None then
          if color.(v) = 0 then begin
            parent.(v) <- u;
            dfs v
          end
          else if color.(v) = 1 then begin
            (* back edge u -> v: walk parents from u back to v *)
            let rec collect acc x = if x = v then v :: acc else collect (x :: acc) parent.(x) in
            cycle := Some (collect [] u)
          end)
      succ.(u);
    if color.(u) = 1 then color.(u) <- 2
  in
  for u = 0 to node_count - 1 do
    if color.(u) = 0 && !cycle = None then dfs u
  done;
  let longest =
    match !cycle with
    | Some _ -> -1
    | None ->
        let memo = Array.make node_count (-1) in
        let rec depth u =
          if memo.(u) >= 0 then memo.(u)
          else begin
            let d =
              List.fold_left (fun acc v -> max acc (1 + depth v)) 0 succ.(u)
            in
            memo.(u) <- d;
            d
          end
        in
        let best = ref 0 in
        for u = 0 to node_count - 1 do
          best := max !best (depth u)
        done;
        !best
  in
  (!cycle, longest, succ)

let build ?(kind = Any_improvement) game =
  let budgets = Game.budgets game in
  let profiles = ref [] in
  Equilibrium.iter_profiles budgets (fun p -> profiles := p :: !profiles);
  let profiles = Array.of_list (List.rev !profiles) in
  let index = Hashtbl.create (Array.length profiles) in
  Array.iteri (fun i p -> Hashtbl.replace index (Strategy.to_string p) i) profiles;
  let arcs = ref [] in
  Array.iteri
    (fun i p ->
      for player = 0 to Game.n game - 1 do
        List.iter
          (fun q ->
            match Hashtbl.find_opt index (Strategy.to_string q) with
            | Some j -> arcs := (i, j) :: !arcs
            | None -> assert false)
          (improving_successors kind game p player)
      done)
    profiles;
  let arcs = List.rev !arcs in
  let cycle, longest, succ = analyze_arcs (Array.length profiles) arcs in
  let sinks = ref [] in
  for i = Array.length profiles - 1 downto 0 do
    if succ.(i) = [] then sinks := i :: !sinks
  done;
  {
    profiles;
    arcs;
    sinks = !sinks;
    has_cycle = cycle <> None;
    cycle_witness = cycle;
    longest_path_lower_bound = longest;
  }

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph improvement {\n  rankdir=LR;\n";
  let sink_set = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace sink_set i ()) t.sinks;
  Array.iteri
    (fun i p ->
      let shape = if Hashtbl.mem sink_set i then "doublecircle" else "ellipse" in
      Buffer.add_string buf
        (Printf.sprintf "  %d [label=\"%s\", shape=%s];\n" i
           (Strategy.to_string p) shape))
    t.profiles;
  List.iter
    (fun (a, b) -> Buffer.add_string buf (Printf.sprintf "  %d -> %d;\n" a b))
    t.arcs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let potential t =
  if t.has_cycle then None
  else begin
    let n = Array.length t.profiles in
    let succ = Array.make n [] in
    List.iter (fun (a, b) -> succ.(a) <- b :: succ.(a)) t.arcs;
    let memo = Array.make n (-1) in
    let rec depth u =
      if memo.(u) >= 0 then memo.(u)
      else begin
        let d = List.fold_left (fun acc v -> max acc (1 + depth v)) 0 succ.(u) in
        memo.(u) <- d;
        d
      end
    in
    Some (Array.init n depth)
  end
