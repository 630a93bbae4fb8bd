let canonical_low_diameter_realization budgets =
  let n = Budget.n budgets in
  let b = Budget.to_array budgets in
  if not (Budget.connectable budgets) then begin
    (* Every realization is disconnected anyway; produce the
       lexicographically smallest valid profile. *)
    let strategies =
      Array.init n (fun i ->
          Array.init b.(i) (fun k -> if k < i then k else k + 1))
    in
    Strategy.make budgets strategies
  end
  else if n = 1 then Strategy.make budgets [| [||] |]
  else begin
    let hub = ref 0 in
    for i = 1 to n - 1 do
      if b.(i) > b.(!hub) then hub := i
    done;
    let hub = !hub in
    let targets = Array.make n [] in
    let remaining = Array.copy b in
    (* Star phase: positive players point at the hub. *)
    for i = 0 to n - 1 do
      if i <> hub && b.(i) > 0 then begin
        targets.(i) <- [ hub ];
        remaining.(i) <- remaining.(i) - 1
      end
    done;
    (* Cover phase: zero-budget players receive one arc each, spent by
       the hub first, then by the other positive players. *)
    let zeros = ref [] in
    for i = n - 1 downto 0 do
      if b.(i) = 0 then zeros := i :: !zeros
    done;
    let spenders =
      hub :: List.filter (fun i -> i <> hub && b.(i) > 0) (List.init n Fun.id)
    in
    List.iter
      (fun s ->
        while remaining.(s) > 0 && !zeros <> [] do
          match !zeros with
          | [] -> ()
          | z :: rest ->
              targets.(s) <- z :: targets.(s);
              remaining.(s) <- remaining.(s) - 1;
              zeros := rest
        done)
      spenders;
    assert (!zeros = []);
    (* Dump phase: leftover arcs go to the smallest fresh targets. *)
    List.iter
      (fun s ->
        let v = ref 0 in
        while remaining.(s) > 0 do
          if !v <> s && not (List.mem !v targets.(s)) then begin
            targets.(s) <- !v :: targets.(s);
            remaining.(s) <- remaining.(s) - 1
          end;
          incr v
        done)
      spenders;
    Strategy.make budgets (Array.map Array.of_list targets)
  end

(* The exhaustive walk behind the exact prices: the minimum of
   [objective] over every profile, and its (min, max) over the
   equilibria of [game], both read off one grouped verdict walk;
   [None] past [max_profiles]. *)
let exact_extremes ~max_profiles game objective =
  let total = Equilibrium.count_profiles (Game.budgets game) in
  if total > max_profiles then None
  else begin
    let opt = ref max_int in
    let ne_min = ref max_int and ne_max = ref min_int in
    Equilibrium.iter_verdicts_range game ~lo:0 ~hi:total (fun p nash ->
        let v = objective p in
        if v < !opt then opt := v;
        if nash then begin
          if v < !ne_min then ne_min := v;
          if v > !ne_max then ne_max := v
        end);
    Some (!opt, if !ne_max = min_int then None else Some (!ne_min, !ne_max))
  end

let diameter p = Cost.social_cost (Strategy.underlying p)

let opt_diameter_bounds budgets =
  let n = Budget.n budgets in
  if n = 1 then (0, 0)
  else if not (Budget.connectable budgets) then
    let c = Cost.cinf ~n in
    (c, c)
  else begin
    let sigma = Budget.total budgets in
    let lo = if sigma >= n * (n - 1) / 2 then 1 else 2 in
    let witness = canonical_low_diameter_realization budgets in
    let hi = Cost.social_cost (Strategy.underlying witness) in
    (lo, hi)
  end

exception Reached_lower_bound

(* The bounds bracket OPT, and hi is a profile's own diameter: when they
   meet there is nothing to walk, and otherwise the walk may stop at the
   first profile that reaches lo. *)
let opt_diameter_exact ?(max_profiles = 2_000_000) budgets =
  if Equilibrium.count_profiles budgets > max_profiles then None
  else
    let lo, hi = opt_diameter_bounds budgets in
    let opt = ref hi in
    (if lo < hi then
       try
         Equilibrium.iter_profiles budgets (fun p ->
             opt := min !opt (diameter p);
             if !opt = lo then raise Reached_lower_bound)
       with Reached_lower_bound -> ());
    Some !opt

type ratio = { num : int; den : int }

let ratio_to_float r = float_of_int r.num /. float_of_int r.den

let pp_ratio ppf r =
  if r.den = 1 then Format.pp_print_int ppf r.num
  else Format.fprintf ppf "%d/%d (%.3f)" r.num r.den (ratio_to_float r)

type prices = { anarchy : ratio; stability : ratio }

let prices ~opt (ne_min, ne_max) =
  {
    anarchy = { num = ne_max; den = opt };
    stability = { num = ne_min; den = opt };
  }

let exact_prices ?(max_profiles = 200_000) game =
  match exact_extremes ~max_profiles game diameter with
  | None | Some (_, None) -> None
  (* A diameter-0 OPT only happens for n = 1, where the unique profile
     is also the unique equilibrium; report 1/1. *)
  | Some (0, Some _) -> Some (prices ~opt:1 (1, 1))
  | Some (opt, Some range) -> Some (prices ~opt range)

let exact_welfare_prices ?(max_profiles = 200_000) game =
  match
    exact_extremes ~max_profiles game (Game.social_welfare game)
  with
  | Some (opt, Some range) when opt > 0 -> Some (prices ~opt range)
  | None | Some _ -> None

let anarchy_lower_bound ~equilibrium_diameter budgets =
  let _, hi = opt_diameter_bounds budgets in
  { num = equilibrium_diameter; den = hi }
