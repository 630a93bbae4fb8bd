(* Spans are a thin front over Profile, the one span store: a handle is
   a Profile frame, and the per-name view below is a rollup of
   Profile's per-path table. *)

type stat = {
  count : int;
  total_ns : int;
  max_ns : int;
  minor_words : float;
  major_words : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
}

type handle = Profile.token

let enabled = Profile.enabled
let set_enabled = Profile.set_enabled

(* span entry doubles as a fault probe point ("span.<name>"): one
   atomic load when nothing is armed *)
let enter name =
  if Fault.armed () then Fault.hit ("span." ^ name);
  Profile.enter name

let exit = Profile.close

let with_ name f =
  if not (Profile.enabled ()) then begin
    if Fault.armed () then Fault.hit ("span." ^ name);
    f ()
  end
  else begin
    let h = enter name in
    Fun.protect ~finally:(fun () -> exit h) f
  end

(* A name's closes are the paths ending in it: counts and totals sum,
   max takes the max, and quantiles come from the element-wise summed
   latency buckets. *)
let snapshot () =
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun (_, c) ->
      let name = c.Profile.name in
      Hashtbl.replace by_name name
        (c :: Option.value ~default:[] (Hashtbl.find_opt by_name name)))
    (Profile.closes ());
  let stat (cs : Profile.closes list) =
    let sum f = List.fold_left (fun a c -> a + f c) 0 cs in
    let sumf f = List.fold_left (fun a c -> a +. f c) 0. cs in
    let max_ns = List.fold_left (fun a c -> max a c.Profile.max_ns) 0 cs in
    let q =
      Histogram.quantile_of_counts ~max_value:max_ns
        (Histogram.merge_counts
           (List.concat_map (fun c -> c.Profile.latency) cs))
    in
    {
      count = sum (fun c -> c.Profile.closes);
      total_ns = sum (fun c -> c.Profile.wall_ns);
      max_ns;
      minor_words = sumf (fun c -> c.Profile.minor_words);
      major_words = sumf (fun c -> c.Profile.major_words);
      p50_ns = q 0.5;
      p90_ns = q 0.9;
      p99_ns = q 0.99;
    }
  in
  List.sort compare
    (Hashtbl.fold (fun name cs acc -> (name, stat cs) :: acc) by_name [])

let reset_all = Profile.reset_all
