type t =
  | Null
  | Stderr_pretty
  | Jsonl of out_channel

let sinks : t list Atomic.t = Atomic.make []
let out_mutex = Mutex.create ()

let normalize = List.filter (fun s -> s <> Null)

(* A closed report channel (the CLI closes it in its own at_exit) must
   not make the process-exit flush raise. *)
let flush_sink = function
  | Null | Stderr_pretty -> ()
  | Jsonl oc -> ( try flush oc with Sys_error _ -> ())

let flush_all () =
  Mutex.protect out_mutex (fun () -> List.iter flush_sink (Atomic.get sinks))

(* Uninstalling a JSONL sink flushes it first, so the channel holds a
   complete line-delimited prefix the moment it leaves the sink list. *)
let set s =
  flush_all ();
  Atomic.set sinks (normalize [ s ])

let add s = Atomic.set sinks (normalize (s :: Atomic.get sinks))
let active () = Atomic.get sinks <> []

let scoped s f =
  let previous = Atomic.get sinks in
  Atomic.set sinks (normalize (s :: previous));
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect out_mutex (fun () -> flush_sink s);
      Atomic.set sinks previous)
    f

(* Interrupted runs: whatever already reached the channel buffers is
   drained at process exit, so a crashed --report run still leaves a
   valid JSONL prefix. *)
let () = at_exit flush_all

(* event timestamps are microseconds since this module initialized, so
   every sink (and every span event) shares one clock origin *)
let t0 = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. t0) *. 1e6
let to_us t = (t -. t0) *. 1e6

let pretty_field buf (k, v) =
  Buffer.add_char buf ' ';
  Buffer.add_string buf k;
  Buffer.add_char buf '=';
  match v with
  | Json.Str s -> Buffer.add_string buf s
  | v -> Json.to_buffer buf v

(* Milestone events are forced (with everything buffered before them)
   to disk.  All dynamics.* events are milestones: each step line is
   one applied best-response move, whose search dwarfs a flush, and
   durability per step is what makes a SIGKILLed --report run leave
   every applied move in the .partial prefix (the crash-safety
   contract bin/fault_smoke.sh checks).  High-rate non-dynamics events
   stay buffered for throughput. *)
let is_milestone name =
  name = "run.summary"
  || name = "progress.heartbeat"
     (* heartbeats exist to be tailed live (bbng_cli top) and to date a
        SIGKILLed run's .partial: both need the line on disk the moment
        it is emitted, and the ticker already rate-limits them *)
  || String.length name >= 9 && String.sub name 0 9 = "dynamics."

let deliver sink name fields line =
  match sink with
  | Null -> ()
  | Stderr_pretty ->
      let buf = Buffer.create 64 in
      (* render the timestamp as a compact prefix, not a field *)
      (match List.assoc_opt "ts_us" fields with
      | Some (Json.Float ts) ->
          Buffer.add_string buf (Printf.sprintf "[bbng +%.3fms] " (ts /. 1e3))
      | _ -> Buffer.add_string buf "[bbng] ");
      Buffer.add_string buf name;
      List.iter
        (fun (k, v) -> if k <> "ts_us" then pretty_field buf (k, v))
        fields;
      Buffer.add_char buf '\n';
      output_string stderr (Buffer.contents buf);
      flush stderr
  | Jsonl oc ->
      output_string oc line;
      output_char oc '\n';
      if is_milestone name then flush oc

let emit name fields =
  match Atomic.get sinks with
  | [] -> ()
  | installed ->
      (* fault probe ("sink.<event>"): lets tests and the smoke matrix
         crash a run at a chosen event — e.g. mid-flight-recording —
         and then assert the artifact is still a valid prefix *)
      if Fault.armed () then Fault.hit ("sink." ^ name);
      let fields = ("ts_us", Json.Float (now_us ())) :: fields in
      (* the JSONL line is rendered before taking the lock: rendering is
         most of an emit, and domains emitting span events concurrently
         must not queue behind each other's serialization *)
      let line =
        if List.exists (function Jsonl _ -> true | _ -> false) installed then
          Json.to_string (Json.Obj (("event", Json.Str name) :: fields))
        else ""
      in
      Mutex.protect out_mutex (fun () ->
          List.iter (fun s -> deliver s name fields line) installed)
