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

type open_span = {
  name : string;
  t0 : float;
  gc0 : Gcstats.snapshot;
  ptok : Profile.token;
  mutable closed : bool;
}

type handle = Disabled | Open of open_span

type cell = {
  mutable count : int;
  mutable total_ns : int;
  mutable max_ns : int;
  mutable minor_words : float;
  mutable major_words : float;
  (* per-family latency distribution; unregistered so the domain-value
     histogram listing stays free of span duplicates *)
  hist : Histogram.t;
}

(* The aggregate table is sharded per domain (same Domain.self-indexed
   pattern as Counter), so Parallel workers closing spans concurrently
   never contend on one global mutex.  Snapshots merge the shards:
   counts and totals sum, max takes the max, and quantiles come from
   the element-wise summed histogram buckets — the multi-domain totals
   must equal the single-domain totals (pinned by test). *)
type shard = { tbl : (string, cell) Hashtbl.t; mu : Mutex.t }

let shards = 8
let shard_index () = (Domain.self () :> int) land (shards - 1)

let table =
  Array.init shards (fun _ -> { tbl = Hashtbl.create 32; mu = Mutex.create () })

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

let record name ns ~gc =
  let sh = table.(shard_index ()) in
  Mutex.protect sh.mu (fun () ->
      let cell =
        match Hashtbl.find_opt sh.tbl name with
        | Some c -> c
        | None ->
            let c =
              {
                count = 0;
                total_ns = 0;
                max_ns = 0;
                minor_words = 0.;
                major_words = 0.;
                hist = Histogram.unregistered name;
              }
            in
            Hashtbl.add sh.tbl name c;
            c
      in
      cell.count <- cell.count + 1;
      cell.total_ns <- cell.total_ns + ns;
      if ns > cell.max_ns then cell.max_ns <- ns;
      (match (gc : Gcstats.delta option) with
      | Some d ->
          cell.minor_words <- cell.minor_words +. d.Gcstats.minor_words;
          cell.major_words <- cell.major_words +. d.Gcstats.major_words
      | None -> ());
      Histogram.record cell.hist ns)

(* span entry doubles as a fault probe point ("span.<name>"): one
   atomic load when nothing is armed *)
let enter name =
  if Fault.armed () then Fault.hit ("span." ^ name);
  if not (Atomic.get enabled_flag) then Disabled
  else
    Open
      {
        name;
        t0 = Unix.gettimeofday ();
        gc0 = Gcstats.capture ();
        ptok = Profile.enter name;
        closed = false;
      }

let exit = function
  | Disabled -> ()
  | Open span ->
      if not span.closed then begin
        span.closed <- true;
        let ns = int_of_float ((Unix.gettimeofday () -. span.t0) *. 1e9) in
        let ns = max 0 ns in
        let d = Gcstats.since span.gc0 in
        record span.name ns ~gc:(Some d);
        (* the profiler sees the same integers the flat table recorded,
           which is what makes folded-total == flat-total exact *)
        Profile.close span.ptok ~wall_ns:ns ~minor_words:d.Gcstats.minor_words;
        (* a sinked run also sees each span close as an event, which is
           what Trace_export turns into Chrome complete slices.  t0_us
           is the span's exact start on the shared event clock (ts_us
           lags the close by the emit path, so ts - dur cannot recover
           it); dom and minor_w let `bbng_cli flame` re-nest per-domain
           stacks and attribute allocation offline. *)
        if Sink.active () then
          Sink.emit "span"
            [
              ("name", Json.Str span.name);
              ("dur_us", Json.Float (float_of_int ns /. 1e3));
              ("t0_us", Json.Float (Sink.to_us span.t0));
              ("dom", Json.Int (Domain.self () :> int));
              ("minor_w", Json.Float d.Gcstats.minor_words);
            ]
      end

let with_ name f =
  if not (Atomic.get enabled_flag) then begin
    if Fault.armed () then Fault.hit ("span." ^ name);
    f ()
  end
  else begin
    let h = enter name in
    Fun.protect ~finally:(fun () -> exit h) f
  end

let time = with_

let snapshot () =
  (* merge per-shard cells by name without stopping writers *)
  let merged : (string, cell list ref) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.iter
            (fun name c ->
              match Hashtbl.find_opt merged name with
              | Some l -> l := c :: !l
              | None -> Hashtbl.add merged name (ref [ c ]))
            sh.tbl))
    table;
  let all =
    Hashtbl.fold
      (fun name cells acc ->
        let count = List.fold_left (fun a c -> a + c.count) 0 !cells in
        let total_ns = List.fold_left (fun a c -> a + c.total_ns) 0 !cells in
        let max_ns = List.fold_left (fun a c -> max a c.max_ns) 0 !cells in
        let minor_words =
          List.fold_left (fun a c -> a +. c.minor_words) 0. !cells
        in
        let major_words =
          List.fold_left (fun a c -> a +. c.major_words) 0. !cells
        in
        let counts = Histogram.merge_counts (List.map (fun c -> c.hist) !cells) in
        let q = Histogram.quantile_of_counts ~max_value:max_ns counts in
        let s : stat =
          {
            count;
            total_ns;
            max_ns;
            minor_words;
            major_words;
            p50_ns = q 0.5;
            p90_ns = q 0.9;
            p99_ns = q 0.99;
          }
        in
        (name, s) :: acc)
      merged []
  in
  List.sort compare all

let reset_all () =
  Array.iter (fun sh -> Mutex.protect sh.mu (fun () -> Hashtbl.reset sh.tbl)) table
