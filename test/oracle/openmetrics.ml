(* The OpenMetrics parser and validator: the self-check half of
   [Bbng_obs.Openmetrics.render].  They accept exactly what [render]
   emits (plus standard whitespace and comments, [# HELP] lines
   included), so the tests and [bench/main.exe --validate-metrics] can
   round-trip a snapshot without an external Prometheus. *)

open Bbng_obs.Openmetrics

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

let parse_value s =
  match s with
  | "+Inf" | "Inf" -> Some Float.infinity
  | "-Inf" -> Some Float.neg_infinity
  | "NaN" -> Some Float.nan
  | s -> float_of_string_opt s

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
              (Printf.sprintf "%g" s.value))
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
                 f.fam_name (Printf.sprintf "%g" (le s));
             s.value)
           0. sorted);
      (match List.rev sorted with
      | last :: _ ->
          if le last <> Float.infinity then
            failf "histogram %s: no +Inf bucket" f.fam_name;
          if last.value <> count then
            failf "histogram %s: +Inf bucket %s <> count %s" f.fam_name
              (Printf.sprintf "%g" last.value) (Printf.sprintf "%g" count)
      | [] -> ())

let validate text =
  match parse text with
  | Error _ as e -> e
  | Ok families -> (
      try
        List.iter validate_family families;
        Ok families
      with Bad msg -> Error msg)
