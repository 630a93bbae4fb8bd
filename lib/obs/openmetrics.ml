(* Prometheus/OpenMetrics text exposition of the live registries.

   One snapshot walks the Counter, Gauge and Histogram registries once
   each and renders them as the standard line protocol:

     # TYPE bbng_dynamics_steps_applied counter
     bbng_dynamics_steps_applied_total 42
     # TYPE bbng_bfs_popped_per_run histogram
     bbng_bfs_popped_per_run_bucket{le="7"} 3
     bbng_bfs_popped_per_run_bucket{le="+Inf"} 9
     ...
     # EOF

   The same format is both the --metrics-out file refreshed on every
   progress heartbeat and the payload a future `bbng serve` scrape
   endpoint would return.  Its parser and validator are test oracles
   (test/oracle/openmetrics.ml). *)

(* --- naming and escaping --- *)

let metric_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* "dynamics.steps_applied" -> "bbng_dynamics_steps_applied" *)
let sanitize name =
  let b = Bytes.of_string name in
  Bytes.iteri (fun i c -> if not (metric_char c) then Bytes.set b i '_') b;
  "bbng_" ^ Bytes.to_string b

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* --- rendering --- *)

type mtype = Counter_t | Gauge_t | Histogram_t | Untyped

let mtype_name = function
  | Counter_t -> "counter"
  | Gauge_t -> "gauge"
  | Histogram_t -> "histogram"
  | Untyped -> "untyped"

let add_header buf name mtype =
  Buffer.add_string buf
    (Printf.sprintf "# TYPE %s %s\n" name (mtype_name mtype))

let add_sample buf name labels v =
  Buffer.add_string buf name;
  (match labels with
  | [] -> ()
  | labels ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, value) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          Buffer.add_string buf (escape_label_value value);
          Buffer.add_char buf '"')
        labels;
      Buffer.add_char buf '}');
  Buffer.add_char buf ' ';
  Buffer.add_string buf (fmt_value v);
  Buffer.add_char buf '\n'

let add_counter buf name v =
  let name = sanitize name in
  add_header buf name Counter_t;
  add_sample buf (name ^ "_total") [] (float_of_int v)

(* labelled cells of one gauge (e.g. progress.done{task="..."} for
   every live task) share a single family: one header, then all the
   samples — the parser rejects duplicate families.  Relies on the
   snapshot being name-sorted so same-name cells are adjacent. *)
let add_gauges buf gauges =
  let last = ref "" in
  List.iter
    (fun (name, labels, v) ->
      let name = sanitize name in
      if name <> !last then begin
        add_header buf name Gauge_t;
        last := name
      end;
      add_sample buf name labels v)
    gauges

(* cumulative le-buckets over the occupied power-of-two buckets; le is
   each bucket's inclusive upper bound.  _count is the last cumulative
   count, so the +Inf bucket equals it even while writers record *)
let add_histogram buf name h =
  let name = sanitize name in
  add_header buf name Histogram_t;
  let cum = ref 0 in
  Array.iteri
    (fun i c ->
      if c > 0 then begin
        cum := !cum + c;
        let _, hi = Histogram.bucket_bounds i in
        add_sample buf (name ^ "_bucket")
          [ ("le", string_of_int hi) ]
          (float_of_int !cum)
      end)
    (Histogram.bucket_counts h);
  let count = float_of_int !cum in
  add_sample buf (name ^ "_bucket") [ ("le", "+Inf") ] count;
  add_sample buf (name ^ "_sum") [] (float_of_int (Histogram.total h));
  add_sample buf (name ^ "_count") [] count

let render () =
  let buf = Buffer.create 4096 in
  List.iter (fun (name, v) -> add_counter buf name v) (Counter.snapshot ());
  add_gauges buf (Gauge.snapshot ());
  List.iter
    (fun (name, h) -> if Histogram.count h > 0 then add_histogram buf name h)
    (Histogram.snapshot ());
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write path =
  (* fault probe: lets the smoke matrix kill the process exactly as a
     scrape snapshot is being refreshed, and then assert the previous
     .prom file survived intact (Atomic_io's temp + rename) *)
  if Fault.armed () then Fault.hit "metrics.scrape";
  let text = render () in
  Atomic_io.write_file path (fun oc -> output_string oc text)
