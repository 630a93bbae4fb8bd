(* Progress heartbeats: long loops declare work-done / work-total and a
   cooperative ticker turns that into periodic [progress.heartbeat]
   events (rate, ETA, budget headroom, GC deltas) plus a refreshed
   OpenMetrics snapshot when [--metrics-out] is set.

   The ticker is cooperative, not a thread: [step] compares the
   monotonic sink clock against the last beat and emits when the
   interval elapsed.  That makes it signal-safe by construction (beats
   happen at loop checkpoints, never mid-write from an async context),
   and free when nothing observes the run — [maybe_beat] is two atomic
   loads when no sink is installed and no metrics file is configured.

   Tasks are domain-safe: [done] is an atomic cell any Parallel worker
   may bump, and a CAS guard elects exactly one emitter per beat, so a
   sharded certification fan-out heartbeats exactly like a sequential
   loop. *)

let c_heartbeats = Counter.make "progress.heartbeats"

(* unknown totals (saturated estimates) are represented as no total:
   the heartbeat then carries done/rate but no ETA *)
let known_total = function
  | Some t when t > 0 && t < max_int -> t
  | Some _ | None -> -1

type t = {
  name : string;
  total : int Atomic.t; (* -1 = unknown *)
  done_ : int Atomic.t;
  t0_us : float;
  budget : Budgeted.t;
  beat_lock : bool Atomic.t;
  last_beat_us : float Atomic.t;
  last_beat_done : int Atomic.t;
  (* only the beat-lock holder touches this *)
  gc_prev : Gcstats.snapshot ref;
  finished : bool Atomic.t;
  (* free-form task state riding along in every heartbeat (e.g. the
     dynamics diagnosis verdict); replaced wholesale by [annotate] *)
  annotations : (string * Json.t) list Atomic.t;
}

(* --- global ticker configuration --- *)

let interval = Atomic.make 1000.
let interval_ms () = Atomic.get interval
let set_interval_ms ms = Atomic.set interval (Float.max 0. ms)

let metrics_out : string option Atomic.t = Atomic.make None
let set_metrics_out p = Atomic.set metrics_out p

let observed () = Sink.active () || Atomic.get metrics_out <> None

(* live tasks, so process exit can emit one final heartbeat per open
   task (through the same at_exit chain that flushes the sinks) *)
let live : t list ref = ref []
let live_mutex = Mutex.create ()

let heartbeat_event = "progress.heartbeat"

(* one final scrape so the .prom file reflects the very last beat; a
   failing write must never break process exit *)
let refresh_metrics_file () =
  match Atomic.get metrics_out with
  | None -> ()
  | Some path -> ( try Openmetrics.write path with Sys_error _ -> ())

let g_done name = Gauge.make ~labels:[ ("task", name) ] "progress.done"
let g_total name = Gauge.make ~labels:[ ("task", name) ] "progress.total"
let g_rate name = Gauge.make ~labels:[ ("task", name) ] "progress.rate_per_s"

let emit_beat t ~now_us =
  if Fault.armed () then Fault.hit "progress.tick";
  let done_now = Atomic.get t.done_ in
  let total = Atomic.get t.total in
  let last_us = Atomic.get t.last_beat_us in
  let last_done = Atomic.get t.last_beat_done in
  let elapsed_us = now_us -. t.t0_us in
  let window_us = now_us -. last_us in
  let overall_rate =
    if elapsed_us > 0. then float_of_int done_now /. elapsed_us *. 1e6 else 0.
  in
  let rate =
    if window_us > 0. && done_now > last_done then
      float_of_int (done_now - last_done) /. window_us *. 1e6
    else overall_rate
  in
  let gc_now = Gcstats.capture () in
  let gc_delta = Gcstats.diff !(t.gc_prev) gc_now in
  t.gc_prev := gc_now;
  Atomic.set t.last_beat_us now_us;
  Atomic.set t.last_beat_done done_now;
  Counter.bump c_heartbeats;
  Gauge.set_int (g_done t.name) done_now;
  if total >= 0 then Gauge.set_int (g_total t.name) total;
  Gauge.set (g_rate t.name) rate;
  if Sink.active () then begin
    let nonzero_counters =
      List.filter_map
        (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
        (Counter.snapshot ())
    in
    Sink.emit heartbeat_event
      ([
         ("task", Json.Str t.name);
         ("done", Json.Int done_now);
       ]
      @ (if total >= 0 then
           [
             ("total", Json.Int total);
             ( "pct",
               Json.Float
                 (100. *. float_of_int done_now /. float_of_int (max 1 total))
             );
           ]
         else [])
      @ [
          ("rate_per_s", Json.Float rate);
          ("elapsed_ms", Json.Float (elapsed_us /. 1e3));
        ]
      @ (if total >= 0 && rate > 0. then
           [
             ( "eta_s",
               Json.Float (float_of_int (max 0 (total - done_now)) /. rate) );
           ]
         else [])
      @ (match Budgeted.deadline_ms_remaining t.budget with
        | Some ms -> [ ("deadline_ms_left", Json.Float ms) ]
        | None -> [])
      @ (match Budgeted.work_remaining t.budget with
        | Some w -> [ ("work_left", Json.Int w) ]
        | None -> [])
      @ Atomic.get t.annotations
      @ [
          ("gc_minor_words", Json.Float gc_delta.Gcstats.minor_words);
          ("gc_major_words", Json.Float gc_delta.Gcstats.major_words);
          ("counters", Json.Obj nonzero_counters);
        ])
  end;
  refresh_metrics_file ()

(* the CAS elects one emitter; [force] still takes the lock so two
   forced beats (finish + at_exit) cannot interleave their writes *)
let try_beat ?(force = false) t =
  if observed () && not (Atomic.get t.finished && not force) then begin
    let now_us = Sink.now_us () in
    let due () =
      now_us -. Atomic.get t.last_beat_us >= Atomic.get interval *. 1e3
    in
    if (force || due ()) && Atomic.compare_and_set t.beat_lock false true then
      Fun.protect
        ~finally:(fun () -> Atomic.set t.beat_lock false)
        (fun () ->
          (* re-check under the lock: a racing domain may have beaten
             between the first test and the CAS *)
          if force || due () then emit_beat t ~now_us)
  end

let start ?total ?(budget = Budgeted.unlimited) name =
  let now = Sink.now_us () in
  let t =
    {
      name;
      total = Atomic.make (known_total total);
      done_ = Atomic.make 0;
      t0_us = now;
      budget;
      beat_lock = Atomic.make false;
      last_beat_us = Atomic.make now;
      last_beat_done = Atomic.make 0;
      gc_prev = ref (Gcstats.capture ());
      finished = Atomic.make false;
      annotations = Atomic.make [];
    }
  in
  Mutex.protect live_mutex (fun () -> live := t :: !live);
  t

let annotate t fields = Atomic.set t.annotations fields

let step ?(n = 1) t =
  ignore (Atomic.fetch_and_add t.done_ n);
  try_beat t

(* beat only when there is unreported progress: [finish], an explicit
   [finalize] and the at_exit hook may all run on the same task without
   duplicating its closing heartbeat *)
let closing_beat t =
  if observed () && Atomic.get t.done_ > Atomic.get t.last_beat_done then
    (* the report channel may already be closed on an abnormal-exit
       path; losing the very last beat is fine, raising here is not *)
    try try_beat ~force:true t with Sys_error _ -> ()

let finish t =
  if not (Atomic.get t.finished) then begin
    closing_beat t;
    Atomic.set t.finished true;
    Mutex.protect live_mutex (fun () ->
        live := List.filter (fun t' -> t' != t) !live)
  end

let with_task ?total ?budget name f =
  let t = start ?total ?budget name in
  Fun.protect ~finally:(fun () -> finish t) (fun () -> f t)

(* Exit safety: beat every open task one last time — heartbeats are
   sink milestones, so each line is flushed whole — and refresh the
   .prom snapshot.  The CLI calls this from its own at_exit hook just
   before it emits run.summary and closes the report channel; the
   at_exit registration below is the backstop for paths that skip it.
   Registered after Sink's own at_exit hook (this module initializes
   later), so in LIFO order it runs before the final channel flush. *)
let finalize () =
  let open_tasks = Mutex.protect live_mutex (fun () -> !live) in
  List.iter closing_beat open_tasks;
  refresh_metrics_file ()

let () = at_exit finalize

(* env-tunable without plumbing: BBNG_HEARTBEAT_MS overrides the
   1000ms default tick, BBNG_METRICS_OUT arms the scrape file for
   processes (the bench harness) that have no --metrics-out flag *)
let () =
  (match Sys.getenv_opt "BBNG_HEARTBEAT_MS" with
  | Some s -> (
      match float_of_string_opt s with
      | Some ms when ms >= 0. -> set_interval_ms ms
      | Some _ | None -> ())
  | None -> ());
  match Sys.getenv_opt "BBNG_METRICS_OUT" with
  | Some path when path <> "" -> set_metrics_out (Some path)
  | Some _ | None -> ()
