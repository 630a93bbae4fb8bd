type t = {
  name : string;
  buckets : int Atomic.t array; (* bucket 0: value 0; bucket i: [2^(i-1), 2^i) *)
  count : int Atomic.t;
  total : int Atomic.t;
  max_v : int Atomic.t;
}

let n_buckets = 64

let create name =
  {
    name;
    buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    total = Atomic.make 0;
    max_v = Atomic.make 0;
  }

let registry : (string, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let make name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some h -> h
      | None ->
          let h = create name in
          Hashtbl.add registry name h;
          h)

let unregistered name = create name

let bucket_of v =
  (* number of significant bits of v, i.e. v \in [2^(i-1), 2^i) lands in
     bucket i and 0 lands in bucket 0 *)
  let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
  bits 0 v

let bucket_bounds i = if i = 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)

let record t v =
  let v = if v < 0 then 0 else v in
  Atomic.incr t.buckets.(bucket_of v);
  Atomic.incr t.count;
  ignore (Atomic.fetch_and_add t.total v);
  let rec bump_max () =
    let m = Atomic.get t.max_v in
    if v > m && not (Atomic.compare_and_set t.max_v m v) then bump_max ()
  in
  bump_max ()

let count t = Atomic.get t.count
let total t = Atomic.get t.total
let max_value t = Atomic.get t.max_v

let bucket_counts t = Array.init n_buckets (fun i -> Atomic.get t.buckets.(i))

let merge_counts histograms =
  let acc = Array.make n_buckets 0 in
  List.iter
    (fun t ->
      for i = 0 to n_buckets - 1 do
        acc.(i) <- acc.(i) + Atomic.get t.buckets.(i)
      done)
    histograms;
  acc

let quantile_of_counts ?max_value counts q =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then 0.
  else begin
    let q = Float.min 1. (Float.max 0. q) in
    (* fractional rank into the sorted sequence of recorded values *)
    let rank = q *. float_of_int (n - 1) in
    let maxv = Option.value ~default:max_int max_value in
    let result = ref (float_of_int (min maxv (1 lsl (n_buckets - 1)))) in
    let cum = ref 0. in
    (try
       for i = 0 to min (n_buckets - 1) (Array.length counts - 1) do
         let c = counts.(i) in
         if c > 0 then begin
           let cum' = !cum +. float_of_int c in
           if rank < cum' then begin
             (* ranks [cum, cum + c - 1] map linearly onto [lo, hi];
                the true rank-th value lies in the same bucket, so the
                estimate is always within a factor of two of it *)
             let lo, hi = bucket_bounds i in
             let hi = min hi maxv in
             let frac =
               Float.min 1. ((rank -. !cum) /. float_of_int (max 1 (c - 1)))
             in
             result := float_of_int lo +. (frac *. float_of_int (hi - lo));
             raise Stdlib.Exit
           end;
           cum := cum'
         end
       done
     with Stdlib.Exit -> ());
    !result
  end

let quantile t q =
  if Atomic.get t.count = 0 then 0.
  else quantile_of_counts ~max_value:(Atomic.get t.max_v) (bucket_counts t) q

let to_json t =
  let occupied = ref [] in
  for i = n_buckets - 1 downto 0 do
    let c = Atomic.get t.buckets.(i) in
    if c > 0 then begin
      let lo, hi = bucket_bounds i in
      occupied :=
        Json.Obj [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ]
        :: !occupied
    end
  done;
  Json.Obj
    [
      ("count", Json.Int (count t));
      ("total", Json.Int (total t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Float (quantile t 0.5));
      ("p90", Json.Float (quantile t 0.9));
      ("p99", Json.Float (quantile t 0.99));
      ("buckets", Json.List !occupied);
    ]

let find name =
  Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt registry name)

let snapshot () =
  let all =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun name h acc -> (name, h) :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) all

let reset t =
  Array.iter (fun b -> Atomic.set b 0) t.buckets;
  Atomic.set t.count 0;
  Atomic.set t.total 0;
  Atomic.set t.max_v 0

let reset_all () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ h -> reset h) registry)
