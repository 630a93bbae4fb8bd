let counters_json () =
  Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (Counter.snapshot ()))

let ms ns = float_of_int ns /. 1e6
let msf ns = ns /. 1e6

let spans_json () =
  (* name-sorted (Span.snapshot order) for stable report diffs *)
  Json.Obj
    (List.map
       (fun (k, (s : Span.stat)) ->
         ( k,
           Json.Obj
             [
               ("count", Json.Int s.Span.count);
               ("total_ms", Json.Float (ms s.Span.total_ns));
               ("max_ms", Json.Float (ms s.Span.max_ns));
               ("p50_ms", Json.Float (msf s.Span.p50_ns));
               ("p90_ms", Json.Float (msf s.Span.p90_ns));
               ("p99_ms", Json.Float (msf s.Span.p99_ns));
               ("minor_words", Json.Float s.Span.minor_words);
               ("major_words", Json.Float s.Span.major_words);
             ] ))
       (Span.snapshot ()))

let histograms_json () =
  Json.Obj
    (List.filter_map
       (fun (k, h) ->
         if Histogram.count h = 0 then None else Some (k, Histogram.to_json h))
       (Histogram.snapshot ()))

let provenance_fields () =
  [
    ("argv", Json.List (List.map (fun a -> Json.Str a) (Array.to_list Sys.argv)));
    ("ocaml_version", Json.Str Sys.ocaml_version);
    ("word_size", Json.Int Sys.word_size);
  ]

let summary_fields () =
  (* run_id joins the summary (and so any --report stream) back to the
     run's ledger row; deliberately NOT in provenance_fields, which is
     folded into certificates whose bytes must be run-independent *)
  (("run_id", Json.Str (Ledger.run_id ())) :: provenance_fields ())
  @ [
      ("counters", counters_json ());
      ("spans", spans_json ());
      ("histograms", histograms_json ());
      ("metrics", Gauge.to_json ());
      ("gc", Gcstats.to_json (Gcstats.since_start ()));
    ]

let print oc =
  let counters = List.filter (fun (_, v) -> v <> 0) (Counter.snapshot ()) in
  let spans = Span.snapshot () in
  let hists =
    List.filter (fun (_, h) -> Histogram.count h > 0) (Histogram.snapshot ())
  in
  (* eyeball order: the hottest line first — counters by count, spans by
     total time, histograms by sample count, all descending (the JSON
     renderings stay name-sorted for stable diffs) *)
  let counters =
    List.stable_sort (fun (_, a) (_, b) -> compare b a) counters
  in
  let spans =
    List.stable_sort
      (fun (_, (a : Span.stat)) (_, (b : Span.stat)) ->
        compare b.Span.total_ns a.Span.total_ns)
      spans
  in
  let hists =
    List.stable_sort
      (fun (_, a) (_, b) -> compare (Histogram.count b) (Histogram.count a))
      hists
  in
  Printf.fprintf oc "== bbng stats ==\n";
  if counters = [] && spans = [] && hists = [] then
    Printf.fprintf oc "  (no counters bumped, no spans recorded)\n"
  else begin
    let width =
      List.fold_left
        (fun acc (k, _) -> max acc (String.length k))
        0
        (counters
        @ List.map (fun (k, _) -> (k, 0)) spans
        @ List.map (fun (k, _) -> (k, 0)) hists)
    in
    if counters <> [] then begin
      Printf.fprintf oc "counters:\n";
      List.iter
        (fun (k, v) -> Printf.fprintf oc "  %-*s %d\n" width k v)
        counters
    end;
    if spans <> [] then begin
      Printf.fprintf oc
        "spans (count / total ms / p50 ms / p99 ms / max ms / minor words):\n";
      List.iter
        (fun (k, (s : Span.stat)) ->
          Printf.fprintf oc "  %-*s %d / %.3f / %.3f / %.3f / %.3f / %.0f\n"
            width k s.Span.count (ms s.Span.total_ns) (msf s.Span.p50_ns)
            (msf s.Span.p99_ns) (ms s.Span.max_ns) s.Span.minor_words)
        spans
    end;
    let hot = Profile.top (Profile.snapshot ()) in
    if hot <> [] then begin
      Printf.fprintf oc "self-time top %d (count / self ms / self minor words):\n"
        (List.length hot);
      List.iter
        (fun (path, (p : Profile.stat)) ->
          Printf.fprintf oc "  %-*s %d / %.3f / %.0f\n" width path
            p.Profile.count
            (ms p.Profile.self_ns)
            p.Profile.self_minor_words)
        hot
    end;
    if hists <> [] then begin
      Printf.fprintf oc "histograms (count / p50 / p90 / p99 / max):\n";
      List.iter
        (fun (k, h) ->
          Printf.fprintf oc "  %-*s %d / %.0f / %.0f / %.0f / %d\n" width k
            (Histogram.count h) (Histogram.quantile h 0.5)
            (Histogram.quantile h 0.9) (Histogram.quantile h 0.99)
            (Histogram.max_value h))
        hists
    end
  end;
  Gcstats.pp_line oc (Gcstats.since_start ());
  flush oc
