let c_contexts = Bbng_obs.Counter.make "deveval.contexts"
let c_evals = Bbng_obs.Counter.make "deveval.incremental_evals"
let c_rows_built = Bbng_obs.Counter.make "deveval.rows_built"
let c_rows_evicted = Bbng_obs.Counter.make "deveval.rows_evicted"
let c_row_hits = Bbng_obs.Counter.make "deveval.row_hits"
let c_blocks = Bbng_obs.Counter.make "deveval.blocks_built"

type engine = Bfs_overlay | Rows

let engine_name = function Bfs_overlay -> "bfs" | Rows -> "rows"

let engine_of_name = function
  | "bfs" -> Some Bfs_overlay
  | "rows" -> Some Rows
  | _ -> None

module Undirected = Bbng_graph.Undirected

(* G∖i, every arc except the player's owned ones, read off the
   profile's U(G) ([Strategy.underlying], shared by all its contexts)
   with the player masked: no walk ever expands the player, so its row,
   the only one that holds its own arcs, is never read, and an edge
   into it is skipped.  [static] is staticN(i), the players whose
   strategy contains the player — a brace partner included — and all a
   context keeps of its own besides [queue], the one BFS queue every
   pricer shares. *)
type graph = {
  n : int;
  player : int;
  ug : Undirected.t;
  static : int array;
  queue : int array;
}

(* The components of G∖i, labelled once per context.  [comp.(v)] is v's
   label ([-1] at the player) and [size.(c)] its vertex count;
   [isolated.(c)] is 1 on the set I of components holding no static
   neighbour (|I| = [c_i]), 0 elsewhere.  A κ count marks the members
   of I its targets hit 2 and restores them before it returns. *)
type components = {
  comp : int array;
  size : int array;
  isolated : int array;
  c_i : int;
}

(* Bit-parallel pricing of single-target candidates (see the interface
   and the section below): a b <= 1 context's candidates, and the SUM
   singletons f({t}) of a rows context's bound.  [shape] describes G∖i
   once per context: [base.(v)] = dist_{G∖i}(staticN(i), v) (the
   sentinel n² where no static neighbour reaches, and at the player).
   [desc] lists the non-player vertices by [base] descending, unreached
   ones first, and [above.(l+1)] counts those with [base > l] for
   -1 <= l <= [max_base]. *)
type shape = {
  base : int array;
  reach : int;                   (* non-player vertices of finite base *)
  base_sum : int;                (* their total base *)
  max_base : int;                (* -1 when no static neighbour *)
  desc : int array;
  above : int array;
}

(* Block [j] holds the candidates [width·j .. width·j + width-1] in
   vertex order, skipping the player; [costs.(t)] is valid once
   [built.(j)] holds for t's block.  [gl] and [u] are bit-sliced vertical
   counters, plane [p] holding bit [p] of every source's count. *)
type batch = {
  shape : shape;
  kernel : Bbng_graph.Bit_bfs.t;
  costs : int array;
  built : bool array;
  gl : int array;
  u : int array;
}

(* Distance rows of the player-deleted static graph, built lazily one
   BFS at a time.  [rows.(v)] caches dist_{G∖player}(v, ·); [base] is
   the single multi-source row min over staticN(player).  FIFO eviction
   under [cap] keeps the worst case at O(cap · n) ints.

   [pre_key.(0 .. pre_len-1)] is the current prefix, the first b-1
   targets of the last candidate ([pre_len = -1]: none yet), and
   [pre_row], once [pre_ok], the min of [base] and their rows.
   Lexicographic enumeration keeps a candidate's first b-1 targets
   fixed for long runs, so most candidates cost one two-row pass over
   [pre_row] and their last target's row.  Rows are deterministic
   functions of the context, so a prefix stays valid across evictions.

   The rest serves the bounds of [cost_within].  [single.(t)] is f({t}),
   the SUM cost of playing t alone (-1 until priced), read off [batch];
   [empty] is f(∅).  While [bnd_ok], [pre_cost] (SUM: f(P) - f(∅)) and
   the witness set [wit.(0 .. wit_len-1)] (MAX) hold for the current prefix
   under [bnd_limit]; a new prefix clears it. *)
type rows_state = {
  cap : int;
  rows : int array option array;
  order : int Queue.t;          (* build order of live cached rows *)
  mutable live : int;
  mutable base : int array option;
  pre_row : int array;
  pre_key : int array;
  mutable pre_len : int;
  mutable pre_ok : bool;
  mutable hits : int;           (* row-cache hits of the current combine *)
  batch : batch Lazy.t;         (* forced by the first singleton price *)
  single : int array;
  mutable empty : int;
  mutable bnd_ok : bool;
  mutable bnd_limit : int;
  mutable pre_cost : int;
  wit : int array;
  mutable wit_len : int;
}

type pricer =
  | Overlay
  | Rows_cache of rows_state
  | Batch of batch Lazy.t  (* forced by the first block build *)

type t = {
  version : Cost.version;
  g : graph;
  engine : engine;
  own : int array;               (* the player's strategy in the profile *)
  components : components Lazy.t;  (* forced by the first κ or batch *)
  pricer : pricer;
  row : int array;               (* the overlay's per-candidate row *)
  (* cooperative cancellation: each evaluation checkpoints the token on
     entry and charges its work after, so a deadline or work limit
     stops a candidate scan between evaluations (a single eval is
     bounded).  Mutable so a context can be warmed up unlimited and
     budgeted afterwards. *)
  mutable budget : Bbng_obs.Budgeted.t;
}

(* --- the G∖i kernel: one BFS, one labelling, one row combine --- *)

(* A row maps every vertex to its distance in G∖i from the nearest of
   its seeds, the sentinel n² elsewhere — at the player always.
   [seed g row tail v] makes [v] a seed unless it is one already (a
   brace contributes the same static neighbour twice) and returns the
   new queue tail. *)
let seed g row tail v =
  if row.(v) = g.n * g.n then begin
    row.(v) <- 0;
    g.queue.(tail) <- v;
    tail + 1
  end
  else tail

let seed_static g row tail =
  let tail = ref tail in
  for k = 0 to Array.length g.static - 1 do
    tail := seed g row !tail g.static.(k)
  done;
  !tail

(* The BFS of G∖i: expands the queued vertices [head .. tail) of [row]
   until nothing new is reached and returns the final tail; the queue
   then lists the reached vertices in BFS order. *)
let bfs g row head tail =
  let inf = g.n * g.n and player = g.player in
  let offs = g.ug.offs and adj = g.ug.targets in
  let queue = g.queue in
  let head = ref head and tail = ref tail in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du1 = row.(u) + 1 in
    for k = offs.(u) to offs.(u + 1) - 1 do
      let v = adj.(k) in
      if v <> player && row.(v) = inf then begin
        row.(v) <- du1;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  !tail

(* The components of U(G) with the player skipped are those of G∖i. *)
let label_components g =
  let module C = Bbng_graph.Components in
  let skip = Array.make g.n false in
  skip.(g.player) <- true;
  let l = C.components_skip g.ug skip in
  let isolated = Array.make l.C.count 1 in
  Array.iter (fun v -> isolated.(l.C.label.(v)) <- 0) g.static;
  let c_i = Array.fold_left ( + ) 0 isolated in
  { comp = l.C.label; size = C.sizes l; isolated; c_i }

(* κ - 1 for a candidate: the components of I its targets miss.  By the
   one-arc lemma a candidate reaches exactly the components of its
   targets and of the static neighbours — the latter are the components
   outside I. *)
let unreached_components cs targets =
  let hit = ref 0 in
  for k = 0 to Array.length targets - 1 do
    let c = cs.comp.(targets.(k)) in
    if cs.isolated.(c) = 1 then begin
      cs.isolated.(c) <- 2;
      incr hit
    end
  done;
  for k = 0 to Array.length targets - 1 do
    let c = cs.comp.(targets.(k)) in
    if cs.isolated.(c) = 2 then cs.isolated.(c) <- 1
  done;
  cs.c_i - !hit

(* The cost of a candidate whose distances from the player are
   1 + min(pre(v), last(v)): the overlay passes its one row twice, the
   rows engine its prefix and its last target's row (at b = 0 the base
   row twice).  Every row holds the sentinel at the player, so the pass
   needs no per-vertex player test — the player falls out of the
   [m < inf] branch and is pre-counted in [reached]. *)
let combine t pre last targets =
  let n = t.g.n in
  let inf = n * n in
  let reached = ref 1 in
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
      else inf + (unreached_components (Lazy.force t.components) targets * inf)

(* --- batch engine, part 1: the shape of G∖i --- *)

(* [base] by one BFS from the player's static neighbours (its queue
   lists the reached vertices by [base] ascending), then a counting
   sort of the non-player vertices by [base] descending. *)
let make_shape g =
  let n = g.n and player = g.player in
  let inf = n * n in
  let base = Array.make n inf in
  let reach = bfs g base 0 (seed_static g base 0) in
  let base_sum = ref 0 in
  for k = 0 to reach - 1 do
    base_sum := !base_sum + base.(g.queue.(k))
  done;
  (* bucket [d + 1] counts base d; bucket 0 the unreached vertices *)
  let mb = if reach = 0 then -1 else base.(g.queue.(reach - 1)) in
  let bucket v = if base.(v) = inf then 0 else base.(v) + 1 in
  let count = Array.make (mb + 2) 0 in
  for v = 0 to n - 1 do
    if v <> player then count.(bucket v) <- count.(bucket v) + 1
  done;
  (* above.(l+1) = #{base > l}: the unreached ones plus buckets above l+1 *)
  let above = Array.make (mb + 2) 0 in
  above.(mb + 1) <- count.(0);
  for l = mb - 1 downto -1 do
    above.(l + 1) <- above.(l + 2) + count.(l + 2)
  done;
  (* descending order: unreached first, then base mb, mb-1, ..., 0 *)
  let start = Array.make (mb + 2) 0 in
  for d = 0 to mb do
    start.(d + 1) <- above.(d + 1)
  done;
  let desc = Array.make (n - 1) 0 in
  for v = 0 to n - 1 do
    if v <> player then begin
      let b = bucket v in
      (* bucket 0 fills [0 ..), bucket d+1 fills [above.(d+1) ..) *)
      desc.(start.(b)) <- v;
      start.(b) <- start.(b) + 1
    end
  done;
  { base; reach; base_sum = !base_sum; max_base = mb; desc; above }

let rec bit_length x = if x = 0 then 0 else 1 + bit_length (x lsr 1)

let make_batch g =
  let width = Bbng_graph.Bit_bfs.width and n = g.n in
  {
    shape = make_shape g;
    kernel = Bbng_graph.Bit_bfs.create ~offs:g.ug.offs ~targets:g.ug.targets;
    costs = Array.make n 0;
    built = Array.make (((n - 1) + width - 1) / width) false;
    (* G <= n - 1, and U sums G over at most n + 1 levels *)
    gl = Array.make (bit_length n) 0;
    u = Array.make (bit_length (n * (n + 1))) 0;
  }

(* default cap: whole-row cache up to ~8M ints (64 MB), never below 16
   rows — at paper scales this never evicts *)
let make_rows_state ~n ~batch row_cache_cap =
  let cap =
    match row_cache_cap with
    | Some c -> max 1 c
    | None -> max 16 (8_388_608 / max n 1)
  in
  {
    cap;
    rows = Array.make n None;
    order = Queue.create ();
    live = 0;
    base = None;
    pre_row = Array.make n 0;
    pre_key = Array.make n 0;
    pre_len = -1;
    pre_ok = false;
    hits = 0;
    batch;
    single = Array.make n (-1);
    empty = -1;
    bnd_ok = false;
    bnd_limit = 0;
    pre_cost = 0;
    wit = Array.make n 0;
    wit_len = 0;
  }

let build ?(budget = Bbng_obs.Budgeted.unlimited) ?engine ?row_cache_cap ~batch
    version profile ~player =
  Bbng_obs.Counter.bump c_contexts;
  let n = Strategy.n profile in
  if player < 0 || player >= n then invalid_arg "Deviation_eval.make: bad player";
  let ug = Strategy.underlying profile in
  let rec owns s k = k >= 0 && (s.(k) = player || owns s (k - 1)) in
  let lo = ug.offs.(player) and hi = ug.offs.(player + 1) in
  let static = Array.make (hi - lo) 0 and len = ref 0 in
  for k = lo to hi - 1 do
    let s = Strategy.strategy profile ug.targets.(k) in
    if owns s (Array.length s - 1) then begin
      static.(!len) <- ug.targets.(k);
      incr len
    end
  done;
  let static = if !len = hi - lo then static else Array.sub static 0 !len in
  let g = { n; player; ug; static; queue = Array.make (max n 1) 0 } in
  let own = Array.copy (Strategy.strategy profile player) in
  (* Rows beat per-candidate BFSs once a scan re-visits targets, which
     C(n-1, b) enumeration does heavily for b >= 2.  At b <= 1 every
     candidate is one target on the same graph G∖i, so a scan with at
     least one full word of candidates prices them [Bit_bfs.width] at a
     time; smaller scans keep the overlay (the crossover table in
     DESIGN §4 puts the break-even near one word).  The context's shape
     is the only selector; [?engine] forces one per-candidate engine
     for cross-engine verification and ablations.  A rows context
     prices its SUM bound's singletons with the batch too. *)
  let engine, pricer =
    match engine with
    | Some Bfs_overlay -> (Bfs_overlay, Overlay)
    | None when Array.length own < 2 ->
        if batch || n - 1 >= Bbng_graph.Bit_bfs.width then
          (Bfs_overlay, Batch (lazy (make_batch g)))
        else (Bfs_overlay, Overlay)
    | Some Rows | None ->
        (Rows, Rows_cache (make_rows_state ~n ~batch:(lazy (make_batch g)) row_cache_cap))
  in
  {
    version;
    g;
    engine;
    own;
    components = lazy (label_components g);
    pricer;
    row = Array.make n 0;
    budget;
  }

let make ?budget ?engine ?row_cache_cap version profile ~player =
  build ?budget ?engine ?row_cache_cap ~batch:false version profile ~player

let make_batched ?budget version profile ~player =
  if Array.length (Strategy.strategy profile player) > 1 then
    invalid_arg "Deviation_eval.make_batched: budget above 1";
  build ?budget ~batch:true version profile ~player

let player t = t.g.player
let in_degree t = Array.length t.g.static
let version t = t.version
let engine t = t.engine
let budget t = t.budget
let set_budget t budget = t.budget <- budget

let validate_targets t targets =
  let b = Array.length targets in
  for i = 0 to b - 1 do
    let v = targets.(i) in
    if v < 0 || v >= t.g.n then invalid_arg "Deviation_eval.cost: target out of range";
    if v = t.g.player then invalid_arg "Deviation_eval.cost: self target";
    (* a duplicate under-spends the budget while pricing as if legal;
       b is tiny, so the quadratic check is cheaper than sorting *)
    for j = i + 1 to b - 1 do
      if targets.(j) = v then invalid_arg "Deviation_eval.cost: duplicate target"
    done
  done

(* --- overlay engine: one row per candidate --- *)

(* The candidate's row is one BFS of G∖i seeded by its targets and the
   static neighbours; the work charged is the reached count, the player
   included. *)
let overlay_cost t targets =
  let g = t.g and row = t.row in
  Array.fill row 0 g.n (g.n * g.n);
  let tail = ref (seed_static g row 0) in
  for k = 0 to Array.length targets - 1 do
    tail := seed g row !tail targets.(k)
  done;
  Bbng_obs.Budgeted.spend t.budget (bfs g row 0 !tail + 1);
  combine t row row targets

(* --- rows engine: per-target distance rows, O(n) prefix combine --- *)

(* The row of [target], or the base row when [target < 0].  The cache
   is only updated after the BFS completes, so an exception (budget
   expiry, an injected fault) or a SIGKILL mid-build never leaves a
   torn row. *)
let build_row t target =
  Bbng_obs.Fault.hit "deveval.row_build";
  Bbng_obs.Counter.bump c_rows_built;
  let g = t.g in
  let row = Array.make g.n (g.n * g.n) in
  let tail = if target < 0 then seed_static g row 0 else seed g row 0 target in
  Bbng_obs.Budgeted.spend t.budget (bfs g row 0 tail);
  row

let base_row t (rs : rows_state) =
  match rs.base with
  | Some row -> row
  | None ->
      let row = build_row t (-1) in
      rs.base <- Some row;
      row

let miss_row t rs target =
  let row = build_row t target in
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

(* typed: a polymorphic [=] here would compare through [caml_equal] *)
let rec same_prefix (key : int array) (targets : int array) i k =
  i >= k || (key.(i) = targets.(i) && same_prefix key targets (i + 1) k)

(* Makes [targets.(0 .. k-1)] the current prefix.  A new key leaves the
   prefix row to be gathered on demand and clears the bound. *)
let set_prefix rs targets k =
  if not (rs.pre_len = k && same_prefix rs.pre_key targets 0 k) then begin
    Array.blit targets 0 rs.pre_key 0 k;
    rs.pre_len <- k;
    rs.pre_ok <- false;
    rs.bnd_ok <- false
  end

(* The min of [base] and the rows of [targets.(0 .. k-1)]: [base]
   itself at k = 0, the cached [pre_row] when it holds that prefix (its
   k rows count as cache hits, as a fresh gather would), otherwise a
   gather in O(k·n).  [pre_ok] is set only once the gather completes,
   so a row build that raises (budget expiry, an injected fault) never
   leaves a torn prefix row marked valid. *)
let prefix_row t rs base targets k =
  if k = 0 then base
  else begin
    set_prefix rs targets k;
    let pre = rs.pre_row in
    if rs.pre_ok then rs.hits <- rs.hits + k
    else begin
      let n = t.g.n in
      Array.blit base 0 pre 0 n;
      for i = 0 to k - 1 do
        let r = cached_row t rs targets.(i) in
        for v = 0 to n - 1 do
          let d = r.(v) in
          if d < pre.(v) then pre.(v) <- d
        done
      done;
      rs.pre_ok <- true
    end;
    pre
  end

(* The (b+1)-way min-combine is the per-candidate hot path — a full
   exhaustive scan runs it C(n-1, b) times — so it is one [combine] of
   two rows: the prefix (base plus the first b-1 targets, see
   [prefix_row]) and the last target's row.  Cache-hit accounting is
   batched into one atomic [Counter.add] per evaluation.  Rows are held
   by reference throughout: a cache eviction while gathering the last
   row cannot invalidate one already in hand. *)
let priced t rs pre last targets =
  Bbng_obs.Counter.bump c_evals;
  Bbng_obs.Budgeted.spend t.budget ((Array.length targets + 1) * t.g.n);
  let result = combine t pre last targets in
  if rs.hits > 0 then Bbng_obs.Counter.add c_row_hits rs.hits;
  result

let rows_cost t rs targets =
  let b = Array.length targets in
  rs.hits <- 0;
  let base = base_row t rs in
  let pre = if b = 0 then base else prefix_row t rs base targets (b - 1) in
  let last = if b = 0 then base else cached_row t rs targets.(b - 1) in
  priced t rs pre last targets

(* --- batch engine, part 2: pricing a block of candidates --- *)

(* Bit-sliced vertical counters: plane [p] holds bit [p] of the count
   of every source at once.  [vadd c w] adds 1 to the counts of the
   sources in [w], [vsub] subtracts 1 (never below 0 here), and
   [vaddv u g] adds every count of [g] to the matching count of [u]. *)
let vadd c w =
  let carry = ref w and p = ref 0 in
  while !carry <> 0 do
    let x = c.(!p) in
    c.(!p) <- x lxor !carry;
    carry := x land !carry;
    incr p
  done

let vsub c w =
  let borrow = ref w and p = ref 0 in
  while !borrow <> 0 do
    let x = c.(!p) in
    c.(!p) <- x lxor !borrow;
    borrow := lnot x land !borrow;
    incr p
  done

let vaddv u g =
  let carry = ref 0 in
  for p = 0 to Array.length g - 1 do
    let a = u.(p) and b = g.(p) in
    u.(p) <- a lxor b lxor !carry;
    carry := (a land b) lor (!carry land (a lxor b))
  done;
  let p = ref (Array.length g) in
  while !carry <> 0 do
    let x = u.(!p) in
    u.(!p) <- x lxor !carry;
    carry := x land !carry;
    incr p
  done

let vget c bit =
  let x = ref 0 in
  for p = Array.length c - 1 downto 0 do
    x := (!x lsl 1) lor ((c.(p) lsr bit) land 1)
  done;
  !x

(* SUM.  With m_s(v) = min(base(v), d_s(v)) the candidate-dependent part
   of the cost, G_l(s) = #{v : base(v) > l, s reached v within l} is
   kept incrementally in [gl] — a source enters at the level it reaches
   v (if below base(v)) and leaves at level base(v) — and [u]
   accumulates U(s) = sum over the first L levels of G_l(s).  Then
   Σ_v m_s(v) = base_sum - U(s) when s sits in a component holding a
   static neighbour (any L >= max_base), and base_sum + L·|comp(s)| -
   U(s) when its component is isolated (any L beyond s's eccentricity:
   the BFS runs until its frontier is empty).  Returns the level count. *)
let sum_levels (sh : shape) bs ~isolated_sources =
  let k = bs.kernel and base = sh.base in
  let gl = bs.gl and u = bs.u in
  Array.fill gl 0 (Array.length gl) 0;
  Array.fill u 0 (Array.length u) 0;
  let level = ref 0 and go = ref true in
  while !go do
    let l = !level in
    let front = Bbng_graph.Bit_bfs.front k and seen = Bbng_graph.Bit_bfs.seen k in
    let queue = Bbng_graph.Bit_bfs.queue k in
    for i = 0 to Bbng_graph.Bit_bfs.count k - 1 do
      let v = queue.(i) in
      let w = front.(v) in
      if w <> 0 && base.(v) > l then vadd gl w
    done;
    if l <= sh.max_base then
      for i = sh.above.(l + 1) to sh.above.(l) - 1 do
        let v = sh.desc.(i) in
        let r = seen.(v) land lnot front.(v) in
        if r <> 0 then vsub gl r;
        Bbng_graph.Bit_bfs.prune k v
      done;
    vaddv u gl;
    if l + 1 < sh.max_base || (isolated_sources <> 0 && Bbng_graph.Bit_bfs.count k > 0)
    then begin
      Bbng_graph.Bit_bfs.step k;
      incr level
    end
    else go := false
  done;
  !level + 1

(* MAX, connected candidates only.  Source s is done at the first level
   L where every v with base(v) > L (isolated ones included) has been
   reached: then max_v min(base(v), d_s(v)) = L and the cost is L + 1.
   The scan of the base-descending prefix stops as soon as every
   pending source is seen to miss some vertex. *)
let max_levels (sh : shape) bs ~first ~len ~vertex seeded =
  let k = bs.kernel in
  let pending = ref seeded and level = ref 0 in
  while !pending <> 0 do
    let l = !level in
    let seen = Bbng_graph.Bit_bfs.seen k in
    let lim =
      if l >= sh.max_base then sh.above.(sh.max_base + 1) else sh.above.(l + 1)
    in
    let missing = ref 0 and i = ref 0 in
    while !i < lim && !missing land !pending <> !pending do
      let v = sh.desc.(!i) in
      missing := !missing lor lnot seen.(v);
      incr i
    done;
    if l <= sh.max_base then
      for i = sh.above.(l + 1) to sh.above.(l) - 1 do
        Bbng_graph.Bit_bfs.prune k sh.desc.(i)
      done;
    let finished = !pending land lnot !missing in
    if finished <> 0 then
      for x = 0 to len - 1 do
        if finished land (1 lsl x) <> 0 then bs.costs.(vertex (first + x)) <- l + 1
      done;
    pending := !pending land !missing;
    if !pending <> 0 then begin
      Bbng_graph.Bit_bfs.step k;
      incr level
    end
  done;
  !level + 1

(* Price block [j] into [bs.costs].  By the one-arc lemma, linking to t
   reaches v at distance 1 + min(base(v), d_{G∖i}(t, v)), and t reaches
   exactly its own component of G∖i.  So the candidate's reach is the
   static neighbours' components plus comp(t), and its unreached
   components number κ - 1 = c_I - [t ∈ I] — both in O(1) from the
   context's labelling — and a disconnected MAX candidate needs no BFS
   at all.  Every other
   candidate is a source of one bit-parallel BFS.  Both versions prune
   v at level base(v): a source arriving there or later gains nothing
   at v, nor beyond it (base(w) <= base(v) + d(v, w)).  The work charged
   is n for the set-up and n per level. *)
let build_block t bs j =
  Bbng_obs.Counter.bump c_blocks;
  let module B = Bbng_graph.Bit_bfs in
  let sh = bs.shape and cs = Lazy.force t.components in
  let n = t.g.n and player = t.g.player in
  let inf = n * n in
  let first = j * B.width in
  let len = min B.width (n - 1 - first) in
  let vertex x = if x < player then x else x + 1 in
  let in_i s = cs.isolated.(cs.comp.(s)) = 1 in
  let k = bs.kernel in
  B.clear k;
  let seeded = ref 0 and isolated_sources = ref 0 in
  for x = 0 to len - 1 do
    let s = vertex (first + x) in
    let unreached = cs.c_i - if in_i s then 1 else 0 in
    match t.version with
    | Cost.Max when unreached > 0 -> bs.costs.(s) <- inf + (unreached * inf)
    | _ ->
        let bit = 1 lsl x in
        B.seed k s bit;
        seeded := !seeded lor bit;
        if in_i s then isolated_sources := !isolated_sources lor bit
  done;
  let levels =
    if !seeded = 0 then 0
    else begin
      B.prune k player;
      match t.version with
      | Cost.Max -> max_levels sh bs ~first ~len ~vertex !seeded
      | Cost.Sum ->
          let levels = sum_levels sh bs ~isolated_sources:!isolated_sources in
          for x = 0 to len - 1 do
            let s = vertex (first + x) in
            let u = vget bs.u x in
            let reach, dist_sum =
              if in_i s then
                let size = cs.size.(cs.comp.(s)) in
                (sh.reach + size, sh.base_sum + (levels * size) - u)
              else (sh.reach, sh.base_sum - u)
            in
            (* every reached v contributes 1 + m(v) *)
            bs.costs.(s) <- reach + dist_sum + ((n - 1 - reach) * inf)
          done;
          levels
    end
  in
  Bbng_obs.Budgeted.spend t.budget ((levels + 1) * n);
  bs.built.(j) <- true

let block_of t v = (if v < t.g.player then v else v - 1) / Bbng_graph.Bit_bfs.width

let batch_cost t bs target =
  let j = block_of t target in
  if not bs.built.(j) then build_block t bs j;
  Bbng_obs.Budgeted.spend t.budget 1;
  bs.costs.(target)

(* --- bounds: deciding a candidate above a limit without its combine --- *)

(* SUM.  f(S), the cost of playing S, sums over v the min of the base
   row and the rows of S, each read as 1 + d or Cinf: a facility-location
   cost, so the gain f(∅) - f(S) is submodular (Nemhauser–Wolsey–Fisher
   1978).  Adding t to P gains at most what adding t to ∅ gains, so

     f(P ∪ {t}) >= f(P) + f({t}) - f(∅).

   f({t}) is a single-target candidate's cost, read off the batch once
   per target (the batch block holding t is built the first time one of
   its targets is asked for), so the bound needs no row of t.  f(∅) is
   one combine of the base row with itself, and f(P) one of the prefix
   row, priced once per prefix; at |P| = 1 it is f({p}), off the batch.
   Each price counts as an evaluation. *)
let part_cost t pre =
  Bbng_obs.Counter.bump c_evals;
  Bbng_obs.Budgeted.spend t.budget (2 * t.g.n);
  combine t pre pre [||]

let empty_cost t rs base =
  if rs.empty < 0 then rs.empty <- part_cost t base;
  rs.empty

let[@inline] single_cost t rs target =
  if rs.single.(target) < 0 then begin
    Bbng_obs.Counter.bump c_evals;
    rs.single.(target) <- batch_cost t (Lazy.force rs.batch) target
  end;
  rs.single.(target)

(* MAX.  The cost is above [limit] exactly when some v has
   min(pre(v), last(v)) + 1 > limit, for every [limit <= Cinf]: a
   disconnected candidate (cost >= 2·Cinf) leaves an unreached v at the
   sentinel in both rows.  Only the witnesses W = {v : pre(v) + 1 > limit}
   (the player excluded: every row holds the sentinel there) can be such
   a v, so W is drawn once per prefix and limit.  Above Cinf, W is
   empty and nothing is decided. *)
let refresh_bound t rs base targets ~limit =
  let k = Array.length targets - 1 in
  set_prefix rs targets k;
  if not (rs.bnd_ok && rs.bnd_limit = limit) then begin
    rs.bnd_ok <- false;
    (match t.version with
    | Cost.Sum ->
        let part =
          if k = 1 then single_cost t rs targets.(0)
          else part_cost t (prefix_row t rs base targets k)
        in
        rs.pre_cost <- part - empty_cost t rs base
    | Cost.Max ->
        let pre = prefix_row t rs base targets k in
        let n = t.g.n and len = ref 0 in
        for v = 0 to n - 1 do
          if pre.(v) + 1 > limit && v <> t.g.player then begin
            rs.wit.(!len) <- v;
            incr len
          end
        done;
        rs.wit_len <- !len;
        Bbng_obs.Budgeted.spend t.budget n);
    rs.bnd_ok <- true;
    rs.bnd_limit <- limit
  end

(* A candidate's cost, or [max_int] when a bound proves it dearer than
   [limit], once [refresh_bound] has settled its prefix's part.  The
   SUM bound is charged 1 and reads no row; the MAX witness test reads
   the last target's row and is charged 1 per witness tried, stopping
   at the first that decides.  Only a survivor reads the prefix row and
   pays the combine.  A decided candidate leaves its row hits in
   [rs.hits] for the caller to count. *)
let[@inline] bounded t rs base targets ~limit =
  let k = Array.length targets - 1 in
  match t.version with
  | Cost.Sum ->
      Bbng_obs.Budgeted.spend t.budget 1;
      if rs.pre_cost + single_cost t rs targets.(k) > limit then max_int
      else
        let pre = prefix_row t rs base targets k in
        priced t rs pre (cached_row t rs targets.(k)) targets
  | Cost.Max ->
      let last = cached_row t rs targets.(k) in
      let wit = rs.wit and len = rs.wit_len in
      let i = ref 0 in
      while !i < len && last.(wit.(!i)) + 1 <= limit do
        incr i
      done;
      Bbng_obs.Budgeted.spend t.budget (!i + 1);
      if !i < len then max_int
      else priced t rs (prefix_row t rs base targets k) last targets

(* [rows_cost] behind the bounds (b >= 2): a decided candidate costs no
   combine and is no evaluation, and comes back as [max_int]. *)
let rows_cost_within t rs targets ~limit =
  rs.hits <- 0;
  let base = base_row t rs in
  refresh_bound t rs base targets ~limit;
  let cost = bounded t rs base targets ~limit in
  if cost = max_int && rs.hits > 0 then Bbng_obs.Counter.add c_row_hits rs.hits;
  cost

(* Reports a tail's [handed] and [decided] candidates not yet reported,
   and the row hits of the decided ones, and zeroes all three. *)
let flush_tail ~tally handed decided hits =
  let h = !handed and d = !decided and x = !hits in
  handed := 0;
  decided := 0;
  hits := 0;
  if x > 0 then Bbng_obs.Counter.add c_row_hits x;
  if h > 0 then tally ~handed:h ~decided:d

(* [rows_cost_within] over a tail (see [scan_tail]).  The first
   candidate settles the base row and the bound as its own
   [rows_cost_within] would; the later ones share them, so each is one
   [bounded] call.  A candidate in flight when an exception strikes is
   handed but neither decided nor priced, and its hits are dropped, as
   [rows_cost_within] drops them. *)
let rows_scan_tail t rs targets ~limit ~tally ~priced:report =
  let k = Array.length targets - 1 and player = t.g.player in
  let handed = ref 0 and decided = ref 0 and hits = ref 0 in
  let base = ref [||] in
  try
    for v = targets.(k - 1) + 1 to t.g.n - 1 do
      if v <> player then begin
        targets.(k) <- v;
        incr handed;
        Bbng_obs.Budgeted.checkpoint t.budget;
        rs.hits <- 0;
        if Array.length !base = 0 then begin
          base := base_row t rs;
          refresh_bound t rs !base targets ~limit
        end;
        let cost = bounded t rs !base targets ~limit in
        if cost = max_int then begin
          incr decided;
          hits := !hits + rs.hits
        end
        else begin
          flush_tail ~tally handed decided hits;
          report targets cost
        end
      end
    done;
    flush_tail ~tally handed decided hits
  with e ->
    flush_tail ~tally handed decided hits;
    raise e

let cost t targets =
  Bbng_obs.Budgeted.checkpoint t.budget;
  validate_targets t targets;
  match t.pricer with
  | Rows_cache rs -> rows_cost t rs targets
  | Batch bs when Array.length targets = 1 ->
      Bbng_obs.Counter.bump c_evals;
      batch_cost t (Lazy.force bs) targets.(0)
  | Overlay | Batch _ ->
      Bbng_obs.Counter.bump c_evals;
      overlay_cost t targets

let cost_within t targets ~limit =
  match t.pricer with
  | Rows_cache rs when Array.length targets >= 2 ->
      Bbng_obs.Budgeted.checkpoint t.budget;
      validate_targets t targets;
      rows_cost_within t rs targets ~limit
  | _ -> cost t targets

(* The tail's own candidates are in range, distinct and player-free by
   construction, so only the prefix is validated, once per tail. *)
let scan_tail t targets ~limit ~tally ~priced =
  let k = Array.length targets - 1 in
  match t.pricer with
  | Rows_cache rs when k >= 1 ->
      for i = 0 to k - 1 do
        let v = targets.(i) in
        if v < 0 || v >= t.g.n || v = t.g.player || (i > 0 && v <= targets.(i - 1))
        then invalid_arg "Deviation_eval.scan_tail: bad prefix"
      done;
      rows_scan_tail t rs targets ~limit ~tally ~priced
  | _ -> invalid_arg "Deviation_eval.scan_tail: needs the rows engine at b >= 2"

(* A lone current-cost query must not pay for a whole block: a search
   pruned by the cost floor or Lemma 2.2 asks nothing else.  The overlay
   prices it unless its block is already built. *)
let current_cost t =
  let block_built bs v = Lazy.is_val bs && (Lazy.force bs).built.(block_of t v) in
  match t.pricer with
  | Batch bs when Array.length t.own = 1 && not (block_built bs t.own.(0)) ->
      Bbng_obs.Budgeted.checkpoint t.budget;
      Bbng_obs.Counter.bump c_evals;
      overlay_cost t t.own
  | _ -> cost t t.own

