module Undirected = Bbng_graph.Undirected

let c_generic = Bbng_obs.Counter.make "deveval.generic_evals"

type t = {
  version : Cost.version;
  budgets : Budget.t;
}

let make version budgets = { version; budgets }
let version g = g.version
let budgets g = g.budgets
let n g = Budget.n g.budgets

let check_profile g p =
  if Strategy.n p <> n g then invalid_arg "Game: profile size mismatch"

let player_cost g p player =
  check_profile g p;
  Cost.vertex_cost g.version (Strategy.underlying p) player

let costs g p =
  check_profile g p;
  Cost.profile_costs g.version (Strategy.underlying p)

let deviation_cost g p ~player ~targets =
  Bbng_obs.Counter.bump c_generic;
  check_profile g p;
  if Array.length targets <> Budget.get g.budgets player then
    invalid_arg "Game.deviation_cost: deviation violates the player's budget";
  (* the deviated U(G) in one build, bypassing [Strategy.underlying]'s
     memo: a probe must not evict the profile's own graph *)
  let deviated = Strategy.with_strategy p ~player ~targets in
  let out = Array.init (n g) (Strategy.strategy deviated) in
  Cost.vertex_cost g.version (Undirected.of_out_neighbors out) player

let social_cost g p =
  check_profile g p;
  Cost.social_cost (Strategy.underlying p)

let social_welfare g p = Array.fold_left ( + ) 0 (costs g p)

let pp ppf g =
  Format.fprintf ppf "%s %a" (Cost.version_name g.version) Budget.pp g.budgets
