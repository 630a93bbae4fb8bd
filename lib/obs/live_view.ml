(* The one reader of a --report JSONL stream: fold it, event by event,
   into a small state.  `bbng_cli top` tails a (possibly still growing,
   possibly mid-write) stream into it and renders a terminal frame;
   `bbng_cli report` (Trace_export.summarize) and the ledger's rebuild
   (Ledger.of_report_events) fold a finished recording and read their
   sections off the same state.

   The reader is deliberately prefix-tolerant: it only consumes
   complete lines (a trailing half-written line stays buffered until
   its newline arrives), and any line that does not parse as an event
   object is counted, not fatal — tailing a file that a crashed writer
   tore mid-byte must never crash the viewer too. *)

type state = {
  tally : (string, int) Hashtbl.t;
  mutable events : int;
  mutable skipped : int;
  mutable first_ts_us : float option;
  mutable last_ts_us : float option;
  mutable min_ts_us : float option;
  mutable max_ts_us : float option;
  mutable last_event : string option;
  mutable last_heartbeat : Json.t option;
  mutable heartbeats : int;
  mutable last_beat_per_task : (string * Json.t) list;
  mutable last_step : Json.t option;
  mutable dynamics_start : Json.t option;
  mutable last_diagnosis : Json.t option;
  mutable last_outcome : Json.t option;
  mutable diagnoses : Json.t list;
  mutable outcomes : Json.t list;
  mutable first_summary : Json.t option;
  mutable summary : Json.t option;
  (* live latency distributions rebuilt from the span events we tail —
     quantiles without waiting for the final run.summary *)
  spans : (string, Histogram.t) Hashtbl.t;
}

let create_state () =
  {
    tally = Hashtbl.create 16;
    events = 0;
    skipped = 0;
    first_ts_us = None;
    last_ts_us = None;
    min_ts_us = None;
    max_ts_us = None;
    last_event = None;
    last_heartbeat = None;
    heartbeats = 0;
    last_beat_per_task = [];
    last_step = None;
    dynamics_start = None;
    last_diagnosis = None;
    last_outcome = None;
    diagnoses = [];
    outcomes = [];
    first_summary = None;
    summary = None;
    spans = Hashtbl.create 16;
  }

(* a numeric field as a whole number, "?" when absent *)
let whole k j =
  match Json.num_field k j with Some v -> Printf.sprintf "%.0f" v | None -> "?"

let feed_event st j =
  let name = Json.event_name j in
  st.events <- st.events + 1;
  st.last_event <- Some name;
  Hashtbl.replace st.tally name
    (1 + Option.value ~default:0 (Hashtbl.find_opt st.tally name));
  (match Json.num_field "ts_us" j with
  | Some ts ->
      if st.first_ts_us = None then st.first_ts_us <- Some ts;
      st.last_ts_us <- Some ts;
      let widen f = function Some b -> Some (f b ts) | None -> Some ts in
      st.min_ts_us <- widen Float.min st.min_ts_us;
      st.max_ts_us <- widen Float.max st.max_ts_us
  | None -> ());
  match name with
  | "progress.heartbeat" ->
      st.last_heartbeat <- Some j;
      st.heartbeats <- st.heartbeats + 1;
      let task = Option.value ~default:"?" (Json.str_field "task" j) in
      st.last_beat_per_task <-
        (if List.mem_assoc task st.last_beat_per_task then
           List.map
             (fun (t, b) -> (t, if t = task then j else b))
             st.last_beat_per_task
         else st.last_beat_per_task @ [ (task, j) ])
  | "dynamics.step" -> st.last_step <- Some j
  | "dynamics.start" ->
      st.dynamics_start <- Some j;
      (* a new run opens: the previous outcome is history *)
      st.last_outcome <- None;
      st.last_diagnosis <- None
  | "dynamics.diagnosis" ->
      st.last_diagnosis <- Some j;
      st.diagnoses <- j :: st.diagnoses
  | "dynamics.outcome" ->
      st.last_outcome <- Some j;
      st.outcomes <- j :: st.outcomes
  | "run.summary" ->
      if st.first_summary = None then st.first_summary <- Some j;
      st.summary <- Some j
  | "span" -> (
      match (Json.str_field "name" j, Json.num_field "dur_us" j) with
      | Some span_name, Some dur ->
          let h =
            match Hashtbl.find_opt st.spans span_name with
            | Some h -> h
            | None ->
                let h = Histogram.unregistered span_name in
                Hashtbl.add st.spans span_name h;
                h
          in
          Histogram.record h (int_of_float dur)
      | _ -> ())
  | _ -> ()

(* one complete line; never raises *)
let feed_line st line =
  if String.trim line <> "" then
    match Json.of_string line with
    | Json.Obj _ as j when Json.member "event" j <> None -> feed_event st j
    | _ -> st.skipped <- st.skipped + 1
    | exception Json.Parse_error _ -> st.skipped <- st.skipped + 1

let finished st = st.summary <> None

(* --- incremental tail over a growing file --- *)

type tail = {
  mutable path : string;
  mutable offset : int;
  pending : Buffer.t;
}

let open_tail path = { path; offset = 0; pending = Buffer.create 256 }

let retarget tail path =
  (* Atomic_io's commit renames FILE.partial over FILE: the bytes are
     identical, so the read offset survives the switch *)
  tail.path <- path

let poll tail st =
  match open_in_bin tail.path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let size = in_channel_length ic in
          if size < tail.offset then begin
            (* the file shrank: a fresh run replaced it; start over *)
            tail.offset <- 0;
            Buffer.clear tail.pending
          end;
          seek_in ic tail.offset;
          let chunk = really_input_string ic (size - tail.offset) in
          tail.offset <- size;
          Buffer.add_string tail.pending chunk;
          let data = Buffer.contents tail.pending in
          Buffer.clear tail.pending;
          (* consume complete lines; keep the half-written remainder *)
          let fed = ref 0 in
          let start = ref 0 in
          String.iteri
            (fun i c ->
              if c = '\n' then begin
                feed_line st (String.sub data !start (i - !start));
                incr fed;
                start := i + 1
              end)
            data;
          Buffer.add_substring tail.pending data !start
            (String.length data - !start);
          !fed)

(* --- frame rendering --- *)

let fmt_rate r =
  if r >= 100. then Printf.sprintf "%.0f/s" r
  else if r >= 1. then Printf.sprintf "%.1f/s" r
  else Printf.sprintf "%.3f/s" r

let fmt_eta s =
  if s >= 3600. then Printf.sprintf "%.1fh" (s /. 3600.)
  else if s >= 60. then Printf.sprintf "%.1fm" (s /. 60.)
  else Printf.sprintf "%.1fs" s

let heartbeat_line j =
  let b = Buffer.create 80 in
  Buffer.add_string b
    (Printf.sprintf "heartbeat: %s %s"
       (Option.value ~default:"?" (Json.str_field "task" j))
       (match Json.num_field "done" j with
       | Some d -> Printf.sprintf "%.0f" d
       | None -> "?"));
  (match (Json.num_field "total" j, Json.num_field "pct" j) with
  | Some t, Some pct -> Buffer.add_string b (Printf.sprintf "/%.0f (%.1f%%)" t pct)
  | _ -> ());
  (match Json.num_field "rate_per_s" j with
  | Some r -> Buffer.add_string b (" · " ^ fmt_rate r)
  | None -> ());
  (match Json.num_field "eta_s" j with
  | Some s -> Buffer.add_string b (" · eta " ^ fmt_eta s)
  | None -> ());
  (match Json.num_field "deadline_ms_left" j with
  | Some ms -> Buffer.add_string b (Printf.sprintf " · deadline %s left" (fmt_eta (ms /. 1e3)))
  | None -> ());
  (match Json.num_field "work_left" j with
  | Some w -> Buffer.add_string b (Printf.sprintf " · work %.0f left" w)
  | None -> ());
  Buffer.contents b

let top_counters ?(limit = 8) st =
  let from_obj = function
    | Some j -> (
        match Json.member "counters" j with
        | Some (Json.Obj fields) ->
            List.filter_map
              (function
                | k, Json.Int v when v <> 0 -> Some (k, v) | _ -> None)
              fields
        | _ -> [])
    | None -> []
  in
  let counters =
    match from_obj st.last_heartbeat with
    | [] -> from_obj st.summary
    | l -> l
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) counters in
  List.filteri (fun i _ -> i < limit) sorted

let render ?(width = 72) st ~source =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let finished = st.summary <> None in
  line "bbng top — %s%s" source (if finished then " (complete)" else " (live)");
  let recorded =
    match (st.first_ts_us, st.last_ts_us) with
    | Some lo, Some hi when hi >= lo -> Printf.sprintf " · recorded %.1fs" ((hi -. lo) /. 1e6)
    | _ -> ""
  in
  line "events %d%s%s · last: %s" st.events
    (if st.skipped > 0 then Printf.sprintf " (%d unparsed)" st.skipped else "")
    recorded
    (Option.value ~default:"-" st.last_event);
  (match st.dynamics_start with
  | Some j ->
      line "run: dynamics rule=%s schedule=%s players=%s"
        (Option.value ~default:"?" (Json.str_field "rule" j))
        (Option.value ~default:"?" (Json.str_field "schedule" j))
        (whole "players" j)
  | None -> ());
  (match st.last_step with
  | Some j ->
      line "step: #%s player %s social_cost %s"
        (whole "step" j)
        (whole "player" j)
        (whole "social_cost" j)
  | None -> ());
  (* the convergence detector's verdict: the latest dynamics.diagnosis
     event, else the heartbeat annotation that carries it between
     windows *)
  (match st.last_diagnosis with
  | Some j ->
      line "diagnosis: %s%s%s%s"
        (Option.value ~default:"?" (Json.str_field "state" j))
        (match Json.num_field "step" j with
        | Some s -> Printf.sprintf " at step %.0f" s
        | None -> "")
        (match Json.num_field "net_social_cost" j with
        | Some d -> Printf.sprintf " · net social cost %+.0f" d
        | None -> "")
        (match Json.num_field "decay_pct" j with
        | Some p -> Printf.sprintf " · improvement at %.0f%% of first window" p
        | None -> "")
  | None -> (
      match Option.bind st.last_heartbeat (Json.str_field "diagnosis") with
      | Some s -> line "diagnosis: %s" s
      | None -> ()));
  (match st.last_heartbeat with
  | Some j -> line "%s" (heartbeat_line j)
  | None -> line "heartbeat: (none yet)");
  (match st.last_outcome with
  | Some j ->
      line "outcome: %s after %s steps"
        (Option.value ~default:"?" (Json.str_field "outcome" j))
        (whole "steps" j)
  | None -> ());
  (match top_counters st with
  | [] -> ()
  | counters ->
      line "counters:";
      let w =
        List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 counters
      in
      List.iter
        (fun (k, v) -> line "  %-*s %d" (min w (width - 16)) k v)
        counters);
  let spans =
    List.sort
      (fun (_, a) (_, b) -> compare (Histogram.total b) (Histogram.total a))
      (Hashtbl.fold (fun k h acc -> (k, h) :: acc) st.spans [])
  in
  (match spans with
  | [] -> ()
  | spans ->
      line "spans (count / p50 ms / p99 ms):";
      let w =
        List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 spans
      in
      List.iteri
        (fun i (k, h) ->
          if i < 6 then
            line "  %-*s %d / %.3f / %.3f" (min w (width - 16)) k
              (Histogram.count h)
              (Histogram.quantile h 0.5 /. 1e3)
              (Histogram.quantile h 0.99 /. 1e3))
        spans);
  if finished then line "(run.summary seen — recording is complete)";
  Buffer.contents b
