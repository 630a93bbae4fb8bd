module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected

type t = {
  budgets : Budget.t;
  strategies : int array array;
}

let validate_strategy n player budget targets =
  if Array.length targets <> budget then
    invalid_arg
      (Printf.sprintf "Strategy: player %d plays %d targets, budget is %d"
         player (Array.length targets) budget);
  let sorted = Array.copy targets in
  Array.sort Int.compare sorted;
  Array.iteri
    (fun k v ->
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Strategy: player %d targets %d (out of range)" player v);
      if v = player then
        invalid_arg (Printf.sprintf "Strategy: player %d targets itself" player);
      if k > 0 && sorted.(k - 1) = v then
        invalid_arg (Printf.sprintf "Strategy: player %d targets %d twice" player v))
    sorted;
  sorted

let make budgets s =
  let n = Budget.n budgets in
  if Array.length s <> n then
    invalid_arg "Strategy.make: profile length differs from player count";
  let strategies =
    Array.mapi (fun i targets -> validate_strategy n i (Budget.get budgets i) targets) s
  in
  { budgets; strategies }

let of_sorted budgets s =
  let n = Budget.n budgets in
  if Array.length s <> n then
    invalid_arg "Strategy.of_sorted: profile length differs from player count";
  Array.iteri
    (fun i targets ->
      let b = Array.length targets in
      let ok = ref (b = Budget.get budgets i) in
      for k = 0 to b - 1 do
        let v = targets.(k) in
        if v < 0 || v >= n || v = i || (k > 0 && targets.(k - 1) >= v) then
          ok := false
      done;
      if not !ok then
        invalid_arg
          (Printf.sprintf
             "Strategy.of_sorted: player %d does not play a sorted strategy" i))
    s;
  { budgets; strategies = s }

let n p = Budget.n p.budgets
let budgets p = p.budgets
let strategy p i = p.strategies.(i)

let realize p = Digraph.of_out_neighbors p.strategies
(* One slot per domain: the last profile asked for and its U(G).  A
   profile is immutable, so its physical identity is a sound key; the
   slot is domain-local, so no domain ever reads a graph another one is
   still building. *)
let memo = Domain.DLS.new_key (fun () -> ref None)

let underlying p =
  let slot = Domain.DLS.get memo in
  match !slot with
  | Some (q, u) when q == p -> u
  | _ ->
      let u = Undirected.of_out_neighbors p.strategies in
      slot := Some (p, u);
      u

let with_strategy p ~player ~targets =
  let np = n p in
  if player < 0 || player >= np then invalid_arg "Strategy.with_strategy: bad player";
  let cleaned = validate_strategy np player (Budget.get p.budgets player) targets in
  let strategies = Array.copy p.strategies in
  strategies.(player) <- cleaned;
  { budgets = p.budgets; strategies }

(* No [validate_strategy] pass here, deliberately: the [Digraph]
   invariant (normalize_targets at every constructor) already
   guarantees each out-neighbor array is sorted, duplicate-free, in
   range and self-loop-free — exactly what validation would re-check.
   Every other constructor ([make], [with_strategy], [of_string]) takes
   unvalidated arrays and must go through [validate_strategy]. *)
let of_digraph g =
  {
    budgets = Budget.of_digraph g;
    strategies = Array.init (Digraph.n g) (fun u -> Array.copy (Digraph.out_neighbors g u));
  }

(* Uniform random b-subset of {0..n-1} \ {player} by partial
   Fisher-Yates over an index trick: sample from n-1 candidates. *)
let random_subset rng n player b =
  let candidates = Array.init (n - 1) (fun i -> if i < player then i else i + 1) in
  for k = 0 to b - 1 do
    let j = k + Random.State.int rng (Array.length candidates - k) in
    let tmp = candidates.(k) in
    candidates.(k) <- candidates.(j);
    candidates.(j) <- tmp
  done;
  Array.sub candidates 0 b

let random rng budgets =
  let np = Budget.n budgets in
  {
    budgets;
    strategies =
      Array.init np (fun i ->
          let s = random_subset rng np i (Budget.get budgets i) in
          Array.sort Int.compare s;
          s);
  }

let relabel p pi =
  let np = n p in
  if Array.length pi <> np then invalid_arg "Strategy.relabel: wrong length";
  let seen = Array.make np false in
  Array.iter
    (fun v ->
      if v < 0 || v >= np || seen.(v) then
        invalid_arg "Strategy.relabel: not a permutation";
      seen.(v) <- true)
    pi;
  let strategies = Array.make np [||] in
  Array.iteri
    (fun i s ->
      let s' = Array.map (fun v -> pi.(v)) s in
      Array.sort Int.compare s';
      strategies.(pi.(i)) <- s')
    p.strategies;
  let budgets = Budget.of_array (Array.map Array.length strategies) in
  { budgets; strategies }

let equal p1 p2 = p1.strategies = p2.strategies
let hash p = Hashtbl.hash p.strategies

let pp ppf p =
  Format.fprintf ppf "[";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%d->{%a}" i
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        s)
    p.strategies;
  Format.fprintf ppf "]"

let to_string p =
  String.concat ";"
    (Array.to_list
       (Array.map
          (fun s -> String.concat "," (Array.to_list (Array.map string_of_int s)))
          p.strategies))

let of_string str =
  let fields = String.split_on_char ';' str in
  let strategies =
    List.map
      (fun f ->
        if f = "" then [||]
        else
          Array.of_list
            (List.map
               (fun tok ->
                 match int_of_string_opt (String.trim tok) with
                 | Some v -> v
                 | None -> invalid_arg ("Strategy.of_string: bad token " ^ tok))
               (String.split_on_char ',' f)))
      fields
  in
  let strategies = Array.of_list strategies in
  let budgets = Budget.of_array (Array.map Array.length strategies) in
  make budgets strategies
