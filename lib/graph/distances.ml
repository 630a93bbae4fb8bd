type sum_result = { sum : int; unreachable : int }

let c_sweeps = Bbng_obs.Counter.make "distances.full_sweeps"
let c_ifub_sweeps = Bbng_obs.Counter.make "distances.ifub_bfs"
let c_ifub_pruned = Bbng_obs.Counter.make "distances.ifub_pruned"

let eccentricity_of_row row =
  let ecc = ref 0 and ok = ref true in
  Array.iter
    (fun d -> if d = Bfs.unreachable then ok := false else if d > !ecc then ecc := d)
    row;
  if !ok then Some !ecc else None

let eccentricity ?budget g u = eccentricity_of_row (Bfs.distances ?budget g u)

(* largest entry of the first n of a swept row: the source's
   eccentricity once the sweep popped all n vertices *)
let row_max n dist =
  let m = ref 0 in
  for v = 0 to n - 1 do
    if dist.(v) > !m then m := dist.(v)
  done;
  !m

(* The aggregate sweeps below share one scratch (dist row + frontier)
   across all n BFS runs of a call, so the per-sweep allocation is
   zero; only entry points that hand rows to the caller ([all_pairs],
   [distance_sum]) still materialize them.  ?budget is threaded into
   every sweep — the PR-4 invariant: a census-scale aggregate stops at
   the next sweep boundary with {!Bbng_obs.Budgeted.Expired}, which
   budget-aware callers catch ({!Bbng_obs.Budgeted.guard}). *)

let fold_eccentricities ?budget g f init =
  Bbng_obs.Counter.bump c_sweeps;
  let n = Undirected.n g in
  if n = 0 then Some init
  else begin
    let dist = Array.make n Bfs.unreachable and queue = Array.make n 0 in
    let rec go u acc =
      if u >= n then Some acc
      else if Bfs.distances_into ?budget g ~src:u ~dist ~queue < n then None
      else go (u + 1) (f acc u (row_max n dist))
    in
    go 0 init
  end

(* iFUB (iterative fringe upper bound) diameter, 4-sweep variant: a
   double sweep from a max-degree seed finds a distant pair [(a, b)]
   (their eccentricities seed the lower bound), the levels are then
   rooted at the *midpoint* of an a-b shortest path — a near-center
   vertex, so [ecc_root ~ diam/2] and [lb >= 2 * level] certifies the
   bound after few (often zero) fringe sweeps.  Remaining fringe
   vertices are processed deepest level first, each BFS raising the
   lower bound, until [lb >= 2 * i] proves that any pair confined to
   levels <= i — all that remains — is within [lb] through the root.
   On small-world graphs the loop stops after a handful of sweeps
   instead of n (distances.ifub_pruned counts the vertices never
   swept); the adversarial worst case (even cycles) degrades to the
   old full all-eccentricities scan. *)
let diameter ?budget g =
  let n = Undirected.n g in
  if n = 0 then Some 0
  else begin
    Bbng_obs.Counter.bump c_sweeps;
    let dist = Array.make n Bfs.unreachable and queue = Array.make n 0 in
    let sweep src = Bfs.distances_into ?budget g ~src ~dist ~queue in
    let seed = ref 0 in
    for u = 1 to n - 1 do
      if Undirected.degree g u > Undirected.degree g !seed then seed := u
    done;
    if sweep !seed < n then None
    else begin
      (* per-vertex eccentricity upper bounds, tightened by every sweep:
         ecc(v) <= d(w, v) + ecc(w) for any swept w (Takes-Kosters).
         Fringe vertices whose bound sinks to lb are skipped — their
         pairs are already certified within lb *)
      let ub = Array.make n max_int in
      let absorb row e =
        for v = 0 to n - 1 do
          let b = row.(v) + e in
          if b < ub.(v) then ub.(v) <- b
        done
      in
      let ds = Array.copy dist in
      let ecc_seed = row_max n ds in
      absorb ds ecc_seed;
      let a = ref !seed in
      for v = 0 to n - 1 do
        if ds.(v) > ds.(!a) then a := v
      done;
      let a = !a in
      ignore (sweep a);
      Bbng_obs.Counter.bump c_ifub_sweeps;
      let da = Array.copy dist in
      let ecc_a = row_max n da in
      absorb da ecc_a;
      let b = ref a in
      for v = 0 to n - 1 do
        if da.(v) > da.(!b) then b := v
      done;
      let b = !b in
      ignore (sweep b);
      Bbng_obs.Counter.bump c_ifub_sweeps;
      let ecc_b = row_max n dist in
      absorb dist ecc_b;
      let lb = ref (max ecc_seed (max ecc_a ecc_b)) in
      (* midpoint of an a-b shortest path: on it and halfway along, as
         witnessed by the two distance rows ([dist] currently = from b) *)
      let d_ab = da.(b) in
      let half = (d_ab + 1) / 2 in
      let mid = ref a in
      for v = 0 to n - 1 do
        if da.(v) = half && dist.(v) = d_ab - half then mid := v
      done;
      let mid = !mid in
      ignore (sweep mid);
      Bbng_obs.Counter.bump c_ifub_sweeps;
      let dm = dist in
      let ecc_mid = row_max n dm in
      absorb dm ecc_mid;
      if ecc_mid > !lb then lb := ecc_mid;
      (* root choice: the fringe loop below sweeps every vertex deeper
         than lb/2 from the root, so of the two leveled candidates —
         the max-degree seed and the a-b midpoint — take the one whose
         lb/2-ball covers more of the graph (the hub on dense
         small-world graphs, the midpoint on path-like ones) *)
      let r = !lb / 2 in
      let deep_seed = ref 0 and deep_mid = ref 0 in
      for v = 0 to n - 1 do
        if ds.(v) > r then incr deep_seed;
        if dm.(v) > r then incr deep_mid
      done;
      let levels = da in
      if !deep_seed < !deep_mid then Array.blit ds 0 levels 0 n
      else Array.blit dm 0 levels 0 n;
      let ecc_root = row_max n levels in
      (* counting sort of the vertices by decreasing root level *)
      let count = Array.make (ecc_root + 1) 0 in
      for v = 0 to n - 1 do
        count.(levels.(v)) <- count.(levels.(v)) + 1
      done;
      let next = Array.make (ecc_root + 1) 0 in
      let idx = ref 0 in
      for l = ecc_root downto 0 do
        next.(l) <- !idx;
        idx := !idx + count.(l)
      done;
      let order = Array.make n 0 in
      for v = 0 to n - 1 do
        let l = levels.(v) in
        order.(next.(l)) <- v;
        next.(l) <- next.(l) + 1
      done;
      let i = ref ecc_root and pos = ref 0 in
      while !i > 0 && !lb < 2 * !i do
        (* re-check the bound after every sweep, not just per level:
           stopping mid-level is sound because every unprocessed vertex
           already sits at level <= i *)
        while !pos < n && levels.(order.(!pos)) = !i && !lb < 2 * !i do
          let v = order.(!pos) in
          incr pos;
          (* a and b were already swept (their eccentricities seed lb);
             a vertex whose upper bound sank to lb is certified *)
          if v <> a && v <> b && ub.(v) > !lb then begin
            ignore (sweep v);
            Bbng_obs.Counter.bump c_ifub_sweeps;
            let e = row_max n dist in
            absorb dist e;
            if e > !lb then lb := e
          end
        done;
        decr i
      done;
      if !pos < n then Bbng_obs.Counter.add c_ifub_pruned (n - !pos);
      Some !lb
    end
  end

let radius ?budget g =
  if Undirected.n g = 0 then Some 0
  else fold_eccentricities ?budget g (fun acc _ e -> min acc e) max_int

let center ?budget g =
  let n = Undirected.n g in
  if n = 0 then []
  else
    let eccs = Array.make n 0 in
    match fold_eccentricities ?budget g (fun () u e -> eccs.(u) <- e) () with
    | None -> []
    | Some () ->
        let r = Array.fold_left min max_int eccs in
        let acc = ref [] in
        for u = n - 1 downto 0 do
          if eccs.(u) = r then acc := u :: !acc
        done;
        !acc

let distance_sum ?budget g u =
  let row = Bfs.distances ?budget g u in
  let sum = ref 0 and unreachable = ref 0 in
  Array.iter
    (fun d -> if d = Bfs.unreachable then incr unreachable else sum := !sum + d)
    row;
  { sum = !sum; unreachable = !unreachable }

let wiener_index ?budget g =
  let n = Undirected.n g in
  if n = 0 then Some 0
  else begin
    let dist = Array.make n Bfs.unreachable and queue = Array.make n 0 in
    let rec go u acc =
      if u >= n then Some (acc / 2)
      else if Bfs.distances_into ?budget g ~src:u ~dist ~queue < n then None
      else begin
        let sum = ref 0 in
        for v = 0 to n - 1 do
          sum := !sum + Array.unsafe_get dist v
        done;
        go (u + 1) (acc + !sum)
      end
    in
    go 0 0
  end

let all_pairs ?budget g =
  Bbng_obs.Counter.bump c_sweeps;
  Bbng_obs.Span.with_ "distances.all_pairs" (fun () ->
      Array.init (Undirected.n g) (Bfs.distances ?budget g))

let diameter_of_matrix m =
  if Array.length m = 0 then Some 0
  else
    Array.fold_left
      (fun acc row ->
        match (acc, eccentricity_of_row row) with
        | Some d, Some e -> Some (max d e)
        | _, _ -> None)
      (Some 0) m

let farthest ?budget g u =
  let row = Bfs.distances ?budget g u in
  let best_v = ref u and best_d = ref 0 in
  Array.iteri
    (fun v d -> if d <> Bfs.unreachable && d > !best_d then begin best_v := v; best_d := d end)
    row;
  (!best_v, !best_d)
