type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then
        (* %.12g round-trips every measurement we record and never
           prints a raw newline or locale separator *)
        Buffer.add_string buf (Printf.sprintf "%.12g" f)
      else Buffer.add_string buf "null"
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buffer buf v;
  Buffer.contents buf

exception Parse_error of string

(* --- minimal strict parser --- *)

type cursor = { src : string; mutable pos : int }

let fail cur msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg cur.pos))

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let skip_ws cur =
  while
    match peek cur with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance cur;
        true
    | _ -> false
  do
    ()
  done

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | _ -> fail cur (Printf.sprintf "expected %C" c)

let literal cur word value =
  if
    cur.pos + String.length word <= String.length cur.src
    && String.sub cur.src cur.pos (String.length word) = word
  then begin
    cur.pos <- cur.pos + String.length word;
    value
  end
  else fail cur (Printf.sprintf "expected %S" word)

let parse_hex4 cur =
  if cur.pos + 4 > String.length cur.src then fail cur "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match peek cur with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail cur "bad \\u escape"
    in
    v := (!v * 16) + d;
    advance cur
  done;
  !v

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> fail cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' -> (
        advance cur;
        match peek cur with
        | Some '"' -> Buffer.add_char buf '"'; advance cur; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; advance cur; go ()
        | Some '/' -> Buffer.add_char buf '/'; advance cur; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; advance cur; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; advance cur; go ()
        | Some 't' -> Buffer.add_char buf '\t'; advance cur; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; advance cur; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; advance cur; go ()
        | Some 'u' ->
            advance cur;
            let code = parse_hex4 cur in
            (* we only emit \u for control bytes; decode the BMP range
               as UTF-8 so foreign input still round-trips *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> fail cur "bad escape")
    | Some c ->
        Buffer.add_char buf c;
        advance cur;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number cur =
  let start = cur.pos in
  let is_float = ref false in
  let consume () = advance cur in
  (match peek cur with Some '-' -> consume () | _ -> ());
  let rec digits n =
    match peek cur with
    | Some '0' .. '9' ->
        consume ();
        digits (n + 1)
    | _ -> n
  in
  ignore (digits 0);
  (match peek cur with
  | Some '.' ->
      is_float := true;
      consume ();
      if digits 0 = 0 then fail cur "digit expected after '.'"
  | _ -> ());
  (match peek cur with
  | Some ('e' | 'E') ->
      is_float := true;
      consume ();
      (match peek cur with Some ('+' | '-') -> consume () | _ -> ());
      if digits 0 = 0 then fail cur "digit expected in exponent"
  | _ -> ());
  let text = String.sub cur.src start (cur.pos - start) in
  if text = "" || text = "-" then fail cur "bad number";
  if !is_float then Float (float_of_string text)
  else match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

(* the parser is recursive-descent, so containment depth is stack
   depth; cap it so adversarially deep input fails with Parse_error
   instead of Stack_overflow *)
let max_depth = 512

let rec parse_value depth cur =
  if depth > max_depth then fail cur "nesting too deep";
  skip_ws cur;
  match peek cur with
  | None -> fail cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some ']' then begin advance cur; List [] end
      else begin
        let rec items acc =
          let v = parse_value (depth + 1) cur in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; items (v :: acc)
          | Some ']' -> advance cur; List (List.rev (v :: acc))
          | _ -> fail cur "expected ',' or ']'"
        in
        items []
      end
  | Some '{' ->
      advance cur;
      skip_ws cur;
      if peek cur = Some '}' then begin advance cur; Obj [] end
      else begin
        let rec fields acc =
          skip_ws cur;
          let k = parse_string cur in
          skip_ws cur;
          expect cur ':';
          let v = parse_value (depth + 1) cur in
          skip_ws cur;
          match peek cur with
          | Some ',' -> advance cur; fields ((k, v) :: acc)
          | Some '}' -> advance cur; Obj (List.rev ((k, v) :: acc))
          | _ -> fail cur "expected ',' or '}'"
        in
        fields []
      end
  | Some ('-' | '0' .. '9') -> parse_number cur
  | Some c -> fail cur (Printf.sprintf "unexpected %C" c)

let of_string s =
  let cur = { src = s; pos = 0 } in
  let v = parse_value 0 cur in
  skip_ws cur;
  if cur.pos <> String.length s then fail cur "trailing garbage";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let int_field k j = match member k j with Some (Int i) -> Some i | _ -> None
let str_field k j = match member k j with Some (Str s) -> Some s | _ -> None

let num_field k j =
  match member k j with
  | Some (Int i) -> Some (float_of_int i)
  | Some (Float f) -> Some f
  | _ -> None

let int_array_field k j =
  match member k j with
  | Some (List l) when List.for_all (function Int _ -> true | _ -> false) l ->
      Some (Array.of_list (List.map (function Int i -> i | _ -> 0) l))
  | _ -> None

let event_name j = Option.value ~default:"?" (str_field "event" j)

let read_lines ic f =
  let rec go acc skipped =
    match input_line ic with
    | exception End_of_file -> (List.rev acc, skipped)
    | line when String.trim line = "" -> go acc skipped
    | line -> (
        match f (of_string line) with
        | Some x -> go (x :: acc) skipped
        | None | (exception Parse_error _) -> go acc (skipped + 1))
  in
  go [] 0
