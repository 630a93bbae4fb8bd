let ok = 0
let failure = 1
let input_error = 2
let exhausted = 3
let io_error = 4
let fault = 5
let cli_error = 124
let internal_error = 125

let describe = function
  | 0 -> "success"
  | 1 -> "domain failure (refuted certificate, failed re-check, divergent replay)"
  | 2 -> "malformed input (graph file, profile, JSON artifact)"
  | 3 -> "deadline or work budget exhausted before a usable result"
  | 4 -> "filesystem error"
  | 5 -> "injected fault fired"
  | 124 -> "command-line usage error"
  | 125 -> "internal error"
  | 137 -> "killed (SIGKILL; e.g. an injected kill fault)"
  | c -> Printf.sprintf "unknown exit code %d" c

let of_exn = function
  | Invalid_argument msg -> Some (input_error, msg)
  | Json.Parse_error msg ->
      Some (input_error, Printf.sprintf "malformed JSON: %s" msg)
  | Sys_error msg -> Some (io_error, msg)
  | Budgeted.Expired ->
      Some (exhausted, "deadline or work budget exhausted")
  | Fault.Injected point ->
      Some (fault, Printf.sprintf "injected fault fired at %s" point)
  | _ -> None
