let read_events ic =
  Json.read_lines ic (function
    | Json.Obj _ as j when Json.member "event" j <> None -> Some j
    | _ -> None)

let ts_us j = Json.num_field "ts_us" j

(* an integer field's digits, "?" when absent or not an integer *)
let int_text k j = Option.fold ~none:"?" ~some:string_of_int (Json.int_field k j)

(* --- Chrome trace-event conversion --- *)

let common ?(tid = 1) ~name ~ph ~ts ~dur rest =
  Json.Obj
    ([
       ("name", Json.Str name);
       ("ph", Json.Str ph);
       ("ts", Json.Float ts);
       ("dur", Json.Float dur);
       ("pid", Json.Int 1);
       ("tid", Json.Int tid);
     ]
    @ rest)

let args_of j =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.filter
           (fun (k, _) -> k <> "event" && k <> "ts_us" && k <> "dur_us")
           fields)
  | _ -> Json.Obj []

let convert_event j =
  let ts = Option.value (ts_us j) ~default:0. in
  match Json.event_name j with
  | "span" ->
      (* the event is stamped at close; the exact start stamp t0_us is
         preferred (ts - dur only approximates it by the emit lag), and
         the recording domain becomes the Chrome thread lane *)
      let dur = Option.value (Json.num_field "dur_us" j) ~default:0. in
      let name =
        match Json.member "name" j with Some (Json.Str s) -> s | _ -> "span"
      in
      let start =
        match Json.num_field "t0_us" j with
        | Some t0 -> t0
        | None -> Float.max 0. (ts -. dur)
      in
      let tid =
        match Json.member "dom" j with Some (Json.Int d) -> d + 1 | _ -> 1
      in
      [ common ~tid ~name ~ph:"X" ~ts:start ~dur [ ("args", args_of j) ] ]
  | name ->
      let instant =
        common ~name ~ph:"i" ~ts ~dur:0.
          [ ("s", Json.Str "g"); ("args", args_of j) ]
      in
      (* dynamics steps additionally feed a Chrome counter track, so the
         social-cost trajectory draws itself in the trace viewer; and
         heartbeats feed a per-task work-done track, so a long run's
         progress curve sits next to its spans *)
      let extra =
        match (name, Json.member "social_cost" j, Json.member "done" j) with
        | "dynamics.step", Some v, _ ->
            [
              common ~name:"social_cost" ~ph:"C" ~ts ~dur:0.
                [ ("args", Json.Obj [ ("social_cost", v) ]) ];
            ]
        | "progress.heartbeat", _, Some v ->
            let track =
              match Json.str_field "task" j with
              | Some task -> "work_done:" ^ task
              | None -> "work_done"
            in
            [
              common ~name:track ~ph:"C" ~ts ~dur:0.
                [ ("args", Json.Obj [ ("done", v) ]) ];
            ]
        | _ -> []
      in
      instant :: extra

let to_chrome events =
  let meta =
    common ~name:"process_name" ~ph:"M" ~ts:0. ~dur:0.
      [ ("args", Json.Obj [ ("name", Json.Str "bbng") ]) ]
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta :: List.concat_map convert_event events));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* --- offline pretty summary of a recorded run --- *)

let summarize events oc =
  let st = Live_view.create_state () in
  List.iter (Live_view.feed_event st) events;
  Printf.fprintf oc "== bbng report summary ==\n";
  Printf.fprintf oc "events: %d\n" st.events;
  (match (st.min_ts_us, st.max_ts_us) with
  | Some lo, Some hi when hi >= lo ->
      Printf.fprintf oc "time range: +%.3fms .. +%.3fms (%.3fms recorded)\n"
        (lo /. 1e3) (hi /. 1e3) ((hi -. lo) /. 1e3)
  | _ -> ());
  (* event counts, most frequent first *)
  let counts =
    List.sort
      (fun (ka, a) (kb, b) -> compare (b, ka) (a, kb))
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.tally [])
  in
  List.iter (fun (k, v) -> Printf.fprintf oc "  %-24s %d\n" k v) counts;
  (* dynamics outcomes are the run's headline *)
  let outcomes = List.rev st.outcomes in
  if List.length outcomes <= 5 then
    List.iter
      (fun j ->
        Printf.fprintf oc "outcome: %s (rule %s) after %s steps, social cost %s\n"
          (Option.value ~default:"?" (Json.str_field "outcome" j))
          (Option.value ~default:"?" (Json.str_field "rule" j))
          (int_text "steps" j) (int_text "social_cost" j))
      outcomes;
  if outcomes <> [] then begin
    (* aggregated dynamics section: outcome tally by rule, steps shape *)
    Printf.fprintf oc "dynamics (%d recorded run%s):\n" (List.length outcomes)
      (if List.length outcomes = 1 then "" else "s");
    let tally = Hashtbl.create 8 in
    List.iter
      (fun j ->
        let key =
          ( Option.value ~default:"?" (Json.str_field "rule" j),
            Option.value ~default:"?" (Json.str_field "outcome" j) )
        in
        Hashtbl.replace tally key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
      outcomes;
    let rows =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
    in
    List.iter
      (fun ((rule, outcome), count) ->
        Printf.fprintf oc "  %-28s %d\n" (rule ^ "/" ^ outcome) count)
      rows;
    let steps = List.filter_map (Json.int_field "steps") outcomes in
    (match steps with
    | [] -> ()
    | _ :: _ ->
        let n_runs = List.length steps in
        let total = List.fold_left ( + ) 0 steps in
        Printf.fprintf oc "  steps: min %d / mean %.1f / max %d (total %d)\n"
          (List.fold_left min max_int steps)
          (float_of_int total /. float_of_int n_runs)
          (List.fold_left max 0 steps)
          total;
        (* power-of-two step buckets: a coarse shape is all that is
           needed to tell "everything converged instantly" from "the
           step limit was doing the work" *)
        let bucket s =
          if s <= 0 then 0
          else
            let rec go b lo = if s < 2 * lo then b else go (b + 1) (2 * lo) in
            go 1 1
        in
        let nbuckets = 1 + List.fold_left (fun a s -> max a (bucket s)) 0 steps in
        let hist = Array.make nbuckets 0 in
        List.iter (fun s -> hist.(bucket s) <- hist.(bucket s) + 1) steps;
        Printf.fprintf oc "  steps histogram:";
        Array.iteri
          (fun b c ->
            if c > 0 then
              if b = 0 then Printf.fprintf oc "  0:%d" c
              else
                Printf.fprintf oc "  [%d,%d):%d" (1 lsl (b - 1)) (1 lsl b) c)
          hist;
        Printf.fprintf oc "\n")
  end;
  (* convergence diagnostics: the windowed detector's verdict history
     and its final word (see Dynamics.run) *)
  let diags = List.rev st.diagnoses in
  if diags <> [] then begin
    let tally = Hashtbl.create 4 in
    List.iter
      (fun j ->
        let s = Option.value ~default:"?" (Json.str_field "state" j) in
        Hashtbl.replace tally s
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally s)))
      diags;
    let counts =
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally [])
    in
    Printf.fprintf oc "diagnosis (%d window%s): %s\n" (List.length diags)
      (if List.length diags = 1 then "" else "s")
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s x%d" k v) counts));
    let last = List.hd st.diagnoses in
    Printf.fprintf oc "  last: %s at step %s"
      (Option.value ~default:"?" (Json.str_field "state" last))
      (int_text "step" last);
    (match Json.member "decay_pct" last with
    | Some (Json.Int i) ->
        Printf.fprintf oc ", improvement at %d%% of first window" i
    | Some (Json.Float f) ->
        Printf.fprintf oc ", improvement at %.0f%% of first window" f
    | _ -> ());
    (match Json.member "net_social_cost" last with
    | Some (Json.Int i) -> Printf.fprintf oc ", net social cost %+d" i
    | _ -> ());
    Printf.fprintf oc "\n"
  end;
  (* telemetry: the last heartbeat per task, with the achieved overall
     rate — on a truncated .partial this line dates the death *)
  if st.heartbeats > 0 then begin
    Printf.fprintf oc "heartbeats (%d recorded; last per task):\n"
      st.heartbeats;
    List.iter
      (fun (task, j) ->
        let done_ = Option.value ~default:0. (Json.num_field "done" j) in
        let progress =
          match Json.num_field "total" j with
          | Some total -> Printf.sprintf "%.0f/%.0f" done_ total
          | None -> Printf.sprintf "%.0f" done_
        in
        let achieved =
          (* overall rate over the task's lifetime, not the last
             window: done / elapsed *)
          match Json.num_field "elapsed_ms" j with
          | Some ms when ms > 0. -> done_ /. ms *. 1e3
          | _ -> Option.value ~default:0. (Json.num_field "rate_per_s" j)
        in
        Printf.fprintf oc "  %-24s %s done · %.1f/s achieved · last beat +%.3fms\n"
          task progress achieved
          (Option.value ~default:0. (ts_us j) /. 1e3))
      st.last_beat_per_task
  end;
  (* call-path attribution reconstructed from the recorded span events
     — the same folded stacks `bbng_cli flame` emits, top-10 by
     self-time so the hot path is visible without leaving the pager *)
  let hot = Profile.top (Profile.of_events events) in
  if hot <> [] then begin
    Printf.fprintf oc "self-time top %d (count / self ms / self minor words):\n"
      (List.length hot);
    List.iter
      (fun (path, (p : Profile.stat)) ->
        Printf.fprintf oc "  %-40s %d / %.3f / %.0f\n" path p.Profile.count
          (float_of_int p.Profile.self_ns /. 1e6)
          p.Profile.self_minor_words)
      hot
  end;
  (* the final run.summary, re-rendered *)
  (match st.first_summary with
  | None -> Printf.fprintf oc "(no run.summary event — truncated run?)\n"
  | Some s ->
      (match Json.str_field "run_id" s with
      | Some id -> Printf.fprintf oc "ledger id: %s\n" id
      | None -> ());
      (match (Json.str_field "ocaml_version" s, Json.member "word_size" s) with
      | Some v, Some (Json.Int w) ->
          Printf.fprintf oc "recorded by: ocaml %s, %d-bit\n" v w
      | _ -> ());
      (match Json.member "argv" s with
      | Some (Json.List argv) ->
          Printf.fprintf oc "argv: %s\n"
            (String.concat " "
               (List.map (function Json.Str a -> a | _ -> "?") argv))
      | _ -> ());
      (match Json.member "counters" s with
      | Some (Json.Obj fields) ->
          let nonzero =
            List.filter (function _, Json.Int 0 -> false | _ -> true) fields
          in
          let nonzero =
            List.sort
              (fun (_, a) (_, b) -> compare b a)
              (List.filter_map
                 (function k, Json.Int v -> Some (k, v) | _ -> None)
                 nonzero)
          in
          if nonzero <> [] then begin
            Printf.fprintf oc "counters:\n";
            List.iter
              (fun (k, v) -> Printf.fprintf oc "  %-32s %d\n" k v)
              nonzero
          end
      | _ -> ());
      (match Json.member "spans" s with
      | Some (Json.Obj fields) when fields <> [] ->
          Printf.fprintf oc "spans (count / total ms / p50 ms / p99 ms / max ms):\n";
          let numf k j = Option.value ~default:0. (Json.num_field k j) in
          let by_total =
            List.sort
              (fun (_, a) (_, b) ->
                compare (numf "total_ms" b) (numf "total_ms" a))
              fields
          in
          List.iter
            (fun (k, sp) ->
              Printf.fprintf oc "  %-32s %.0f / %.3f / %.3f / %.3f / %.3f\n" k
                (numf "count" sp) (numf "total_ms" sp) (numf "p50_ms" sp)
                (numf "p99_ms" sp) (numf "max_ms" sp))
            by_total
      | _ -> ());
      (match Json.member "gc" s with
      | Some gc ->
          let numf k = Option.value ~default:0. (Json.num_field k gc) in
          Printf.fprintf oc
            "gc: minor %.0f words (%.0f collections), major %.0f words (%.0f), heap %.0f words\n"
            (numf "minor_words") (numf "minor_collections") (numf "major_words")
            (numf "major_collections") (numf "heap_words")
      | None -> ()));
  flush oc
