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
   endpoint would return.  [parse]/[validate] exist so tests and
   `bench/main.exe --validate-metrics` can check a snapshot without an
   external Prometheus. *)

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

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (if s.[!i] = '\\' && !i + 1 < n then begin
       (match s.[!i + 1] with
       | 'n' -> Buffer.add_char buf '\n'
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | c ->
           Buffer.add_char buf '\\';
           Buffer.add_char buf c);
       incr i
     end
     else Buffer.add_char buf s.[!i]);
    incr i
  done;
  Buffer.contents buf

let fmt_value v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let parse_value s =
  match s with
  | "+Inf" | "Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | s -> float_of_string_opt s

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

(* --- parsing (for validation and tests) --- *)

type sample = {
  sample_name : string;
  labels : (string * string) list;
  value : float;
}

type family = {
  fam_name : string;
  fam_type : mtype;
  samples : sample list;
}

exception Bad of string

let failf fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let mtype_of_name = function
  | "counter" -> Counter_t
  | "gauge" -> Gauge_t
  | "histogram" -> Histogram_t
  | "untyped" -> Untyped
  | s -> failf "unknown metric type %S" s

let split2 what line =
  match String.index_opt line ' ' with
  | Some i ->
      (String.sub line 0 i,
       String.sub line (i + 1) (String.length line - i - 1))
  | None -> failf "%s line without a value: %S" what line

(* name{k="v",...} — the value was already split off *)
let parse_labels s =
  let n = String.length s in
  let labels = ref [] in
  let i = ref 0 in
  let expect c =
    if !i >= n || s.[!i] <> c then failf "bad label syntax in %S" s;
    incr i
  in
  expect '{';
  while !i < n && s.[!i] <> '}' do
    let start = !i in
    while !i < n && s.[!i] <> '=' do incr i done;
    let key = String.sub s start (!i - start) in
    expect '=';
    expect '"';
    let vbuf = Buffer.create 16 in
    let rec value () =
      if !i >= n then failf "unterminated label value in %S" s
      else if s.[!i] = '\\' && !i + 1 < n then begin
        Buffer.add_char vbuf s.[!i];
        Buffer.add_char vbuf s.[!i + 1];
        i := !i + 2;
        value ()
      end
      else if s.[!i] = '"' then incr i
      else begin
        Buffer.add_char vbuf s.[!i];
        incr i;
        value ()
      end
    in
    value ();
    labels := (key, unescape (Buffer.contents vbuf)) :: !labels;
    if !i < n && s.[!i] = ',' then incr i
  done;
  expect '}';
  if !i <> n then failf "trailing garbage after labels in %S" s;
  List.rev !labels

let parse_sample line =
  match String.index_opt line '{' with
  | Some b ->
      let sample_name = String.sub line 0 b in
      let rest = String.sub line b (String.length line - b) in
      (* the value follows the closing brace *)
      let close =
        match String.rindex_opt rest '}' with
        | Some c -> c
        | None -> failf "sample without closing brace: %S" line
      in
      let labels = parse_labels (String.sub rest 0 (close + 1)) in
      let v = String.trim (String.sub rest (close + 1) (String.length rest - close - 1)) in
      (match parse_value v with
      | Some value -> { sample_name; labels; value }
      | None -> failf "bad sample value %S" v)
  | None ->
      let sample_name, v = split2 "sample" line in
      (match parse_value (String.trim v) with
      | Some value -> { sample_name; labels = []; value }
      | None -> failf "bad sample value %S in %S" v line)

let parse text =
  let lines = String.split_on_char '\n' text in
  let families = ref [] in
  (* samples attach to the family whose name prefixes theirs *)
  let current = ref None in
  let saw_eof = ref false in
  let close () =
    match !current with
    | Some f ->
        families := { f with samples = List.rev f.samples } :: !families;
        current := None
    | None -> ()
  in
  (try
     List.iter
       (fun line ->
         let line = String.trim line in
         if line = "" then ()
         else if !saw_eof then failf "content after # EOF: %S" line
         else if line = "# EOF" then begin
           close ();
           saw_eof := true
         end
         else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
           close ();
           let name, ty = split2 "# TYPE" (String.sub line 7 (String.length line - 7)) in
           if List.exists (fun f -> f.fam_name = name) !families then
             failf "duplicate family %S" name;
           current :=
             Some
               {
                 fam_name = name;
                 fam_type = mtype_of_name (String.trim ty);
                 samples = [];
               }
         end
         else if line.[0] = '#' then () (* # HELP and other comments are legal *)
         else
           let s = parse_sample line in
           match !current with
           | Some f when
               String.length s.sample_name >= String.length f.fam_name
               && String.sub s.sample_name 0 (String.length f.fam_name)
                  = f.fam_name ->
               current := Some { f with samples = s :: f.samples }
           | _ -> failf "sample %S outside its family" s.sample_name)
       lines;
     close ();
     if not !saw_eof then failf "missing # EOF terminator";
     Ok (List.rev !families)
   with Bad msg -> Error msg)

(* --- semantic validation on top of the syntax --- *)

let suffix_of fam s =
  let n = String.length fam.fam_name in
  String.sub s.sample_name n (String.length s.sample_name - n)

let validate_family f =
  match f.fam_type with
  | Counter_t ->
      List.iter
        (fun s ->
          (match suffix_of f s with
          | "" | "_total" -> ()
          | suf -> failf "counter %s has bad suffix %S" f.fam_name suf);
          if Float.is_nan s.value || s.value < 0. then
            failf "counter %s has non-monotonic value %s" f.fam_name
              (fmt_value s.value))
        f.samples
  | Gauge_t | Untyped -> ()
  | Histogram_t ->
      let buckets =
        List.filter (fun s -> suffix_of f s = "_bucket") f.samples
      in
      let le s =
        match List.assoc_opt "le" s.labels with
        | Some le -> (
            match parse_value le with
            | Some v -> v
            | None -> failf "histogram %s: bad le %S" f.fam_name le)
        | None -> failf "histogram %s: bucket without le" f.fam_name
      in
      let find suffix =
        match List.find_opt (fun s -> suffix_of f s = suffix) f.samples with
        | Some s -> s.value
        | None -> failf "histogram %s: missing %s" f.fam_name suffix
      in
      let count = find "_count" in
      ignore (find "_sum");
      (match buckets with
      | [] -> failf "histogram %s has no buckets" f.fam_name
      | _ -> ());
      (* cumulativity: counts non-decreasing in le order, +Inf == count *)
      let sorted =
        List.sort (fun a b -> Float.compare (le a) (le b)) buckets
      in
      ignore
        (List.fold_left
           (fun prev s ->
             if s.value < prev then
               failf "histogram %s: bucket le=%s drops below predecessor"
                 f.fam_name (fmt_value (le s));
             s.value)
           0. sorted);
      (match List.rev sorted with
      | last :: _ ->
          if le last <> Float.infinity then
            failf "histogram %s: no +Inf bucket" f.fam_name;
          if last.value <> count then
            failf "histogram %s: +Inf bucket %s <> count %s" f.fam_name
              (fmt_value last.value) (fmt_value count)
      | [] -> ())

let validate text =
  match parse text with
  | Error _ as e -> e
  | Ok families -> (
      try
        List.iter validate_family families;
        Ok families
      with Bad msg -> Error msg)
