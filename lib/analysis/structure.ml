open Bbng_core
module Digraph = Bbng_graph.Digraph
module Undirected = Bbng_graph.Undirected
module Components = Bbng_graph.Components
module Cycles = Bbng_graph.Cycles
module Bfs = Bbng_graph.Bfs
module Isomorphism = Bbng_graph.Isomorphism

type anatomy = {
  connected : bool;
  cycles : int list list;
  cycle_len : int;
  has_brace : bool;
  max_dist_to_cycle : int;
  diameter : int;
}

let analyze profile =
  if not (Budget.is_unit (Strategy.budgets profile)) then
    invalid_arg "Structure.analyze: budgets are not all 1";
  let g = Strategy.realize profile in
  let u = Strategy.underlying profile in
  let connected = Components.is_connected u in
  let cycles = Cycles.functional_cycles g in
  let cycle_len, max_dist_to_cycle =
    match cycles with
    | [ c ] ->
        let dist = Cycles.distance_to_set u c in
        let far =
          Array.fold_left
            (fun acc d -> if d = Bfs.unreachable then acc else max acc d)
            0 dist
        in
        (List.length c, far)
    | _ -> (0, -1)
  in
  {
    connected;
    cycles;
    cycle_len;
    has_brace = Digraph.braces g <> [];
    max_dist_to_cycle;
    diameter = Cost.social_cost u;
  }

type violation = { clause : string }

let fail clause = Some { clause }

let check_sum_structure profile =
  let a = analyze profile in
  let n = Strategy.n profile in
  if n = 2 then None (* the brace is the unique (and stable) realization *)
  else if not a.connected then fail "connected"
  else if a.has_brace then fail "no brace"
  else if List.length a.cycles <> 1 then fail "unique cycle"
  else if a.cycle_len > 5 then fail "cycle length <= 5"
  else if a.max_dist_to_cycle > 1 then fail "every vertex within distance 1 of the cycle"
  else None

let check_max_structure profile =
  let a = analyze profile in
  if not a.connected then fail "connected"
  else if List.length a.cycles <> 1 then fail "unique cycle"
  else if a.cycle_len > 7 then fail "cycle length <= 7"
  else if a.max_dist_to_cycle > 2 then fail "every vertex within distance 2 of the cycle"
  else None

(* --- mergeable isomorphism-class accumulator --- *)

module Iso_acc = struct
  module Smap = Map.Make (String)

  type cls = { rep : Strategy.t; rep_key : string; count : int }

  type t = { buckets : cls list Smap.t; classes : int; total : int }

  let c_iso_tests = Bbng_obs.Counter.make "census.iso_tests"
  let c_iso_pruned = Bbng_obs.Counter.make "census.iso_pruned"

  let empty = { buckets = Smap.empty; classes = 0; total = 0 }

  (* Cheap label-invariant fingerprint: profiles in different buckets
     cannot be isomorphic, so the exact (exponential worst-case)
     digraph test only ever runs within a bucket — orbit pruning for
     the accumulator.  In/out-degree sequences, brace count and the
     underlying diameter are all preserved by relabeling. *)
  let fingerprint profile =
    let g = Strategy.realize profile in
    let n = Strategy.n profile in
    let indeg = Array.make n 0 in
    let outdeg = Array.make n 0 in
    for i = 0 to n - 1 do
      let s = Strategy.strategy profile i in
      outdeg.(i) <- Array.length s;
      Array.iter (fun j -> indeg.(j) <- indeg.(j) + 1) s
    done;
    Array.sort compare indeg;
    Array.sort compare outdeg;
    let b = Buffer.create 64 in
    Buffer.add_string b (string_of_int n);
    Buffer.add_char b '|';
    Array.iter
      (fun d ->
        Buffer.add_string b (string_of_int d);
        Buffer.add_char b ',')
      indeg;
    Buffer.add_char b '|';
    Array.iter
      (fun d ->
        Buffer.add_string b (string_of_int d);
        Buffer.add_char b ',')
      outdeg;
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int (List.length (Digraph.braces g)));
    Buffer.add_char b '|';
    Buffer.add_string b (string_of_int (Cost.social_cost (Strategy.underlying profile)));
    Buffer.contents b

  (* Deterministic representative: the class keeps its lexicographically
     smallest member seen (by serialization), so the final class list is
     independent of scan partitioning and merge order — the property the
     census's byte-identical-resume contract rests on. *)
  let min_rep a b = if a.rep_key <= b.rep_key then a else b

  let add_weighted acc profile weight =
    let fp = fingerprint profile in
    let bucket = Option.value ~default:[] (Smap.find_opt fp acc.buckets) in
    if bucket = [] then Bbng_obs.Counter.bump c_iso_pruned;
    let g = Strategy.realize profile in
    let rec place seen = function
      | [] ->
          let cls =
            { rep = profile; rep_key = Strategy.to_string profile; count = weight }
          in
          (List.rev (cls :: seen), true)
      | c :: rest ->
          Bbng_obs.Counter.bump c_iso_tests;
          if Isomorphism.digraph_isomorphic (Strategy.realize c.rep) g then
            let merged =
              {
                (min_rep c
                   {
                     rep = profile;
                     rep_key = Strategy.to_string profile;
                     count = 0;
                   })
                with
                count = c.count + weight;
              }
            in
            (List.rev_append seen (merged :: rest), false)
          else place (c :: seen) rest
    in
    let bucket, fresh = place [] bucket in
    {
      buckets = Smap.add fp bucket acc.buckets;
      classes = (acc.classes + if fresh then 1 else 0);
      total = acc.total + weight;
    }

  let add acc profile = add_weighted acc profile 1

  let classes acc =
    Smap.fold (fun _ bucket l -> List.rev_append bucket l) acc.buckets []
    |> List.sort (fun a b -> compare a.rep_key b.rep_key)
    |> List.map (fun c -> (c.rep, c.count))

  (* [classes] are pairwise non-isomorphic (one accumulator's classes),
     so each is tested only against the buckets of [acc] as it stood
     before them: a class can match at most one of those, and none of
     its own batch.  New classes append to their bucket, so an old
     class keeps its position and a match replaces it there. *)
  let add_classes acc classes =
    List.fold_left
      (fun cur (rep, count) ->
        let fp = fingerprint rep in
        let rec find g i = function
          | [] -> None
          | c :: rest ->
              Bbng_obs.Counter.bump c_iso_tests;
              if Isomorphism.digraph_isomorphic (Strategy.realize c.rep) g then
                Some i
              else find g (i + 1) rest
        in
        let matched =
          match Smap.find_opt fp acc.buckets with
          | None | Some [] ->
              Bbng_obs.Counter.bump c_iso_pruned;
              None
          | Some before -> find (Strategy.realize rep) 0 before
        in
        let fresh = { rep; rep_key = Strategy.to_string rep; count } in
        let bucket = Option.value ~default:[] (Smap.find_opt fp cur.buckets) in
        let bucket, classes =
          match matched with
          | None -> (bucket @ [ fresh ], cur.classes + 1)
          | Some i ->
              ( List.mapi
                  (fun j c ->
                    if j = i then { (min_rep c fresh) with count = c.count + count }
                    else c)
                  bucket,
                cur.classes )
        in
        {
          buckets = Smap.add fp bucket cur.buckets;
          classes;
          total = cur.total + count;
        })
      acc classes

  let merge a b = add_classes a (classes b)

  let class_count acc = acc.classes
  let total acc = acc.total
end

let pp_anatomy ppf a =
  Format.fprintf ppf
    "@[connected=%b cycles=%d cycle_len=%d brace=%b fringe_depth=%d diameter=%d@]"
    a.connected (List.length a.cycles) a.cycle_len a.has_brace
    a.max_dist_to_cycle a.diameter
