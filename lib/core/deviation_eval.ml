module Bfs = Bbng_graph.Bfs

let c_contexts = Bbng_obs.Counter.make "deveval.contexts"
let c_evals = Bbng_obs.Counter.make "deveval.incremental_evals"
let c_rows_built = Bbng_obs.Counter.make "deveval.rows_built"
let c_rows_evicted = Bbng_obs.Counter.make "deveval.rows_evicted"
let c_row_hits = Bbng_obs.Counter.make "deveval.row_hits"

type engine = Bfs_overlay | Rows

let engine_name = function Bfs_overlay -> "bfs" | Rows -> "rows"

let engine_of_name = function
  | "bfs" -> Some Bfs_overlay
  | "rows" -> Some Rows
  | _ -> None

(* Distance rows of the player-deleted static graph, built lazily one
   BFS at a time.  [rows.(v)] caches dist_{G∖player}(v, ·); [base] is
   the single multi-source row min over staticN(player).  FIFO eviction
   under [cap] keeps the worst case at O(cap · n) ints.

   [pre_row] caches the min of [base] and the rows of the first
   [pre_len] targets of the last combine, namely [pre_key.(0 ..
   pre_len-1)] ([pre_len = -1]: no valid prefix).  Lexicographic
   enumeration keeps a candidate's first b-1 targets fixed for long
   runs, so most candidates cost one two-row pass over [pre_row] and
   their last target's row.  Rows are deterministic functions of the
   context, so a prefix stays valid across evictions. *)
type rows_state = {
  cap : int;
  rows : int array option array;
  order : int Queue.t;          (* build order of live cached rows *)
  mutable live : int;
  mutable base : int array option;
  pre_row : int array;
  pre_key : int array;
  mutable pre_len : int;
  mutable hits : int;           (* row-cache hits of the current combine *)
}

type t = {
  version : Cost.version;
  player : int;
  n : int;
  engine : engine;
  (* all arcs except the player's owned ones, in flat CSR shape: row u
     is static_targets.[static_offs.(u) .. static_offs.(u+1)).  The
     BFS and min-combine hot loops below are straight int-array scans
     over these two vectors — no per-vertex array chase, no closure. *)
  static_offs : int array;       (* n + 1 *)
  static_targets : int array;
  own : int array;               (* the player's strategy in the profile *)
  rows_state : rows_state option;  (* Some iff engine = Rows *)
  (* reusable scratch: [seen.(v) = stamp] marks validity of [dist.(v)] *)
  mutable stamp : int;
  seen : int array;
  dist : int array;
  queue : int array;
  comp_seen : int array;         (* second stamp space for kappa *)
  (* cooperative cancellation: each evaluation checkpoints the token on
     entry and charges its work after, so a deadline or work limit
     stops a candidate scan between evaluations (a single eval is
     bounded).  Mutable so a context can be warmed up unlimited and
     budgeted afterwards. *)
  mutable budget : Bbng_obs.Budgeted.t;
}

let make ?(budget = Bbng_obs.Budgeted.unlimited) ?engine ?row_cache_cap version
    profile ~player =
  Bbng_obs.Counter.bump c_contexts;
  let n = Strategy.n profile in
  if player < 0 || player >= n then invalid_arg "Deviation_eval.make: bad player";
  let deg = Array.make n 0 in
  let bump u v =
    deg.(u) <- deg.(u) + 1;
    deg.(v) <- deg.(v) + 1
  in
  for i = 0 to n - 1 do
    if i <> player then Array.iter (fun j -> bump i j) (Strategy.strategy profile i)
  done;
  let static_offs = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    static_offs.(i + 1) <- static_offs.(i) + deg.(i)
  done;
  let static_targets = Array.make (max static_offs.(n) 1) 0 in
  let fill = Array.sub static_offs 0 n in
  let add u v =
    static_targets.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1
  in
  for i = 0 to n - 1 do
    if i <> player then
      Array.iter
        (fun j ->
          add i j;
          add j i)
        (Strategy.strategy profile i)
  done;
  let own = Array.copy (Strategy.strategy profile player) in
  (* Rows beat the overlay BFS once a candidate scan re-visits targets,
     which C(n-1, b) enumeration does heavily for b >= 2; at b <= 1
     every row is used once and the overlay's single BFS is already
     optimal.  The budget is the only selector; [?engine] forces one
     engine for cross-engine verification and ablations. *)
  let engine =
    match engine with
    | Some e -> e
    | None -> if Array.length own >= 2 then Rows else Bfs_overlay
  in
  let rows_state =
    match engine with
    | Bfs_overlay -> None
    | Rows ->
        (* default cap: whole-row cache up to ~8M ints (64 MB), never
           below 16 rows — at paper scales this never evicts *)
        let cap =
          match row_cache_cap with
          | Some c -> max 1 c
          | None -> max 16 (8_388_608 / max n 1)
        in
        Some
          {
            cap;
            rows = Array.make n None;
            order = Queue.create ();
            live = 0;
            base = None;
            pre_row = Array.make n 0;
            pre_key = Array.make n 0;
            pre_len = -1;
            hits = 0;
          }
  in
  {
    version;
    player;
    n;
    engine;
    static_offs;
    static_targets;
    own;
    rows_state;
    stamp = 0;
    seen = Array.make n 0;
    dist = Array.make n 0;
    queue = Array.make (max n 1) 0;
    comp_seen = Array.make n 0;
    budget;
  }

let player t = t.player
let version t = t.version
let engine t = t.engine
let budget t = t.budget
let set_budget t budget = t.budget <- budget

(* Count connected components among vertices not reached by the last
   evaluation, walking only static adjacency (correct: no static edge
   joins a reached and an unreached vertex — see the interface
   comment).  Both engines mark their reach set into [seen] under the
   current [stamp] before calling this. *)
let unreached_components t =
  let comps = ref 0 in
  let stamp = t.stamp in
  for start = 0 to t.n - 1 do
    if t.seen.(start) <> stamp && t.comp_seen.(start) <> stamp then begin
      incr comps;
      (* small DFS with the shared queue as a stack *)
      let top = ref 1 in
      t.queue.(0) <- start;
      t.comp_seen.(start) <- stamp;
      while !top > 0 do
        decr top;
        let u = t.queue.(!top) in
        for k = t.static_offs.(u) to t.static_offs.(u + 1) - 1 do
          let v = t.static_targets.(k) in
          if t.seen.(v) <> stamp && t.comp_seen.(v) <> stamp then begin
            t.comp_seen.(v) <- stamp;
            t.queue.(!top) <- v;
            incr top
          end
        done
      done
    end
  done;
  !comps

let validate_targets t targets =
  let b = Array.length targets in
  for i = 0 to b - 1 do
    let v = targets.(i) in
    if v < 0 || v >= t.n then invalid_arg "Deviation_eval.cost: target out of range";
    if v = t.player then invalid_arg "Deviation_eval.cost: self target";
    (* a duplicate under-spends the budget while pricing as if legal;
       b is tiny, so the quadratic check is cheaper than sorting *)
    for j = i + 1 to b - 1 do
      if targets.(j) = v then invalid_arg "Deviation_eval.cost: duplicate target"
    done
  done

(* --- overlay engine: one fresh BFS per candidate --- *)

let overlay_cost t targets =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp in
  let offs = t.static_offs and adj = t.static_targets in
  let head = ref 0 and tail = ref 0 in
  let visit v d =
    if t.seen.(v) <> stamp then begin
      t.seen.(v) <- stamp;
      t.dist.(v) <- d;
      t.queue.(!tail) <- v;
      incr tail
    end
  in
  visit t.player 0;
  (* the player's tentative arcs only matter as first steps *)
  Array.iter (fun v -> visit v 1) targets;
  for k = offs.(t.player) to offs.(t.player + 1) - 1 do
    visit adj.(k) 1
  done;
  (* skip the player itself in the queue: position 0 *)
  head := 0;
  while !head < !tail do
    let u = t.queue.(!head) in
    incr head;
    if u <> t.player then begin
      let du1 = t.dist.(u) + 1 in
      for k = offs.(u) to offs.(u + 1) - 1 do
        let v = adj.(k) in
        if t.seen.(v) <> stamp then begin
          t.seen.(v) <- stamp;
          t.dist.(v) <- du1;
          t.queue.(!tail) <- v;
          incr tail
        end
      done
    end
  done;
  let reached = !tail in
  Bbng_obs.Budgeted.spend t.budget reached;
  let inf = t.n * t.n in
  match t.version with
  | Cost.Sum ->
      let acc = ref 0 in
      for i = 0 to reached - 1 do
        acc := !acc + t.dist.(t.queue.(i))
      done;
      !acc + ((t.n - reached) * inf)
  | Cost.Max ->
      if reached = t.n then begin
        let acc = ref 0 in
        for i = 0 to reached - 1 do
          if t.dist.(t.queue.(i)) > !acc then acc := t.dist.(t.queue.(i))
        done;
        !acc
      end
      else begin
        (* kappa = 1 (player's component) + components among unreached *)
        let kappa = 1 + unreached_components t in
        inf + ((kappa - 1) * inf)
      end

(* --- rows engine: per-target distance rows, O(n) prefix combine --- *)

(* One BFS of the player-deleted static graph from the seeds already
   placed in [t.queue]; the row maps every vertex to its distance from
   the nearest seed (the sentinel n² elsewhere, including at the
   player).  The cache is only updated after the BFS completes, so an
   exception (budget expiry, an injected fault) or a SIGKILL mid-build
   never leaves a torn row. *)
let finish_row t row tail0 =
  let inf = t.n * t.n in
  let offs = t.static_offs and adj = t.static_targets in
  let head = ref 0 and tail = ref tail0 in
  while !head < !tail do
    let u = t.queue.(!head) in
    incr head;
    let du1 = row.(u) + 1 in
    for k = offs.(u) to offs.(u + 1) - 1 do
      let v = adj.(k) in
      if v <> t.player && row.(v) = inf then begin
        row.(v) <- du1;
        t.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Bbng_obs.Budgeted.spend t.budget !tail;
  row

let build_row_single t target =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let row = Array.make t.n (t.n * t.n) in
  row.(target) <- 0;
  t.queue.(0) <- target;
  finish_row t row 1

(* seeded by the player's static neighbourhood (duplicates merged —
   a brace contributes the same endpoint twice) *)
let build_base_row t =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let inf = t.n * t.n in
  let row = Array.make t.n inf in
  let tail = ref 0 in
  for k = t.static_offs.(t.player) to t.static_offs.(t.player + 1) - 1 do
    let s = t.static_targets.(k) in
    if row.(s) = inf then begin
      row.(s) <- 0;
      t.queue.(!tail) <- s;
      incr tail
    end
  done;
  finish_row t row !tail

let base_row t rs =
  match rs.base with
  | Some row -> row
  | None ->
      let row = build_base_row t in
      rs.base <- Some row;
      row

let miss_row t rs target =
  let row = build_row_single t target in
  if rs.live >= rs.cap then begin
    match Queue.take_opt rs.order with
    | Some victim ->
        rs.rows.(victim) <- None;
        rs.live <- rs.live - 1;
        Bbng_obs.Counter.bump c_rows_evicted
    | None -> ()
  end;
  rs.rows.(target) <- Some row;
  Queue.push target rs.order;
  rs.live <- rs.live + 1;
  row

let cached_row t rs target =
  match rs.rows.(target) with
  | Some r ->
      rs.hits <- rs.hits + 1;
      r
  | None -> miss_row t rs target

let rec same_prefix key targets i k =
  i >= k || (key.(i) = targets.(i) && same_prefix key targets (i + 1) k)

(* The min of [base] and the rows of [targets.(0 .. k-1)]: [base]
   itself at k = 0, the cached [pre_row] when its key matches (its k
   rows count as cache hits, as a fresh gather would), otherwise a
   rebuild in O(k·n).  The key is dropped before the rebuild starts,
   so a row build that raises (budget expiry, an injected fault) never
   leaves a torn prefix behind a valid key. *)
let prefix_row t rs base targets k =
  if k = 0 then base
  else if rs.pre_len = k && same_prefix rs.pre_key targets 0 k then begin
    rs.hits <- rs.hits + k;
    rs.pre_row
  end
  else begin
    let n = t.n and pre = rs.pre_row in
    rs.pre_len <- -1;
    Array.blit base 0 pre 0 n;
    for i = 0 to k - 1 do
      let r = cached_row t rs targets.(i) in
      for v = 0 to n - 1 do
        let d = r.(v) in
        if d < pre.(v) then pre.(v) <- d
      done;
      rs.pre_key.(i) <- targets.(i)
    done;
    rs.pre_len <- k;
    pre
  end

(* The (b+1)-way min-combine is the per-candidate hot path — a full
   exhaustive scan runs it C(n-1, b) times — so it is one pass over two
   rows: the prefix (base plus the first b-1 targets, see [prefix_row])
   and the last target's row (at b = 0 the base row stands in for it;
   min(base, base) = base).  Every row holds the sentinel at the player
   (build_row never relaxes it), so the pass needs no per-vertex player
   test — the player falls out of the [m < inf] branch and is
   pre-counted in [reached]; and cache-hit accounting is batched into
   one atomic [Counter.add] per evaluation.  The reach set is not
   marked in the pass either: only the MAX disconnection walk needs the
   mark, and that rare path re-derives it from the same two rows.  Rows
   are held by reference throughout: a cache eviction while gathering
   the last row cannot invalidate one already in hand. *)
let rows_cost t rs targets =
  let n = t.n in
  let inf = n * n in
  let b = Array.length targets in
  rs.hits <- 0;
  let base = base_row t rs in
  let pre = if b = 0 then base else prefix_row t rs base targets (b - 1) in
  let last = if b = 0 then base else cached_row t rs targets.(b - 1) in
  Bbng_obs.Budgeted.spend t.budget ((b + 1) * n);
  let reached = ref 1 in
  let result =
    match t.version with
    | Cost.Sum ->
        let sum = ref 0 in
        for v = 0 to n - 1 do
          let m = pre.(v) and d = last.(v) in
          let m = if d < m then d else m in
          if m < inf then begin
            incr reached;
            sum := !sum + m + 1
          end
        done;
        !sum + ((n - !reached) * inf)
    | Cost.Max ->
        let mx = ref 0 in
        for v = 0 to n - 1 do
          let m = pre.(v) and d = last.(v) in
          let m = if d < m then d else m in
          if m < inf then begin
            incr reached;
            if m + 1 > !mx then mx := m + 1
          end
        done;
        if !reached = n then !mx
        else begin
          (* disconnected under MAX: mark the reach set for the
             component walk *)
          t.stamp <- t.stamp + 1;
          let stamp = t.stamp in
          t.seen.(t.player) <- stamp;
          for v = 0 to n - 1 do
            if pre.(v) < inf || last.(v) < inf then t.seen.(v) <- stamp
          done;
          let kappa = 1 + unreached_components t in
          inf + ((kappa - 1) * inf)
        end
  in
  if rs.hits > 0 then Bbng_obs.Counter.add c_row_hits rs.hits;
  result

let cost t targets =
  Bbng_obs.Budgeted.checkpoint t.budget;
  Bbng_obs.Counter.bump c_evals;
  validate_targets t targets;
  match t.rows_state with
  | None -> overlay_cost t targets
  | Some rs -> rows_cost t rs targets

let current_cost t = cost t t.own
