(** Hand-rolled JSON: just enough for JSONL event streams and bench
    reports, with zero dependencies.

    The emitter always produces valid JSON on a single line (no raw
    newlines escape a string literal), so one event per line is a
    structural guarantee, not a convention.  The parser accepts the
    emitter's output plus standard whitespace — it exists so tests and
    [bench/main.exe --validate] can check reports without pulling in an
    opam JSON library. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_buffer : Buffer.t -> t -> unit

val to_string : t -> string
(** Single-line rendering.  Non-finite floats become [null] (JSON has
    no [nan]/[inf]). *)

exception Parse_error of string

val of_string : string -> t
(** Strict recursive-descent parse of one JSON value; raises
    {!Parse_error} on malformed input, trailing garbage, or containment
    nesting deeper than 512 levels (deep input fails cleanly instead of
    overflowing the stack).  Numbers without [.], [e] or [E] parse as
    [Int], others as [Float]. *)

val member : string -> t -> t option
(** [member key (Obj _)] looks up [key]; [None] on missing key or
    non-object. *)

(** Typed field readers over {!member}: [None] when the key is missing
    or holds another type. *)

val int_field : string -> t -> int option
val str_field : string -> t -> string option

val num_field : string -> t -> float option
(** Accepts [Int] or [Float] (the emitter prints whole floats without a
    decimal point, so they parse back as [Int]). *)

val int_array_field : string -> t -> int array option
(** A list whose every element is an [Int]. *)

val event_name : t -> string
(** The ["event"] string field of a JSONL event, ["?"] when absent. *)

val read_lines : in_channel -> (t -> 'a option) -> 'a list * int
(** The one tolerant JSONL reader: [read_lines ic f] parses every line
    of [ic] to end of file and keeps [f]'s [Some] results in file
    order.  Blank lines are ignored; a line that fails to parse, or
    that [f] maps to [None], is counted in the second component
    instead — a torn tail (crash mid-append) or a hand-edited line
    never aborts the read. *)
