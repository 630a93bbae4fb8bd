exception Injected of string

type action = Raise | Delay_ms of float | Exit_code of int | Kill

type spec = { point : string; action : action; after : int }

type armed_spec = { spec : spec; remaining : int Atomic.t }

let c_fired = Counter.make "fault.injections_fired"

(* the armed list is read on every probe hit, so the empty/non-empty
   distinction is a single atomic load (probes cost nothing unarmed) *)
let armed_specs : armed_spec list Atomic.t = Atomic.make []

let armed () = Atomic.get armed_specs <> []
let disarm () = Atomic.set armed_specs []

let arm spec =
  Atomic.set armed_specs
    ({ spec; remaining = Atomic.make (max 1 spec.after) }
    :: Atomic.get armed_specs)

let parse_action s =
  match String.split_on_char ':' s with
  | [ "raise" ] -> Ok Raise
  | [ "kill" ] -> Ok Kill
  | [ "exit"; c ] -> (
      match int_of_string_opt c with
      | Some c when c >= 0 && c <= 255 -> Ok (Exit_code c)
      | _ -> Error (Printf.sprintf "bad exit code %S" c))
  | [ "delay"; ms ] -> (
      match float_of_string_opt ms with
      | Some ms when ms >= 0. -> Ok (Delay_ms ms)
      | _ -> Error (Printf.sprintf "bad delay %S" ms))
  | _ -> Error (Printf.sprintf "unknown action %S (raise|kill|exit:N|delay:MS)" s)

let parse s =
  match String.split_on_char '@' (String.trim s) with
  | [ point; action ] | [ point; action; "" ] -> (
      if point = "" then Error "fault spec has an empty probe point"
      else
        match parse_action action with
        | Ok action -> Ok { point; action; after = 1 }
        | Error _ as e -> e)
  | [ point; action; n ] -> (
      if point = "" then Error "fault spec has an empty probe point"
      else
        match (parse_action action, int_of_string_opt n) with
        | Ok action, Some n when n >= 1 -> Ok { point; action; after = n }
        | Ok _, _ -> Error (Printf.sprintf "bad hit count %S" n)
        | (Error _ as e), _ -> e)
  | _ ->
      Error
        (Printf.sprintf "bad fault spec %S (expected POINT@ACTION[@NTH-HIT])" s)

let env_var = "BBNG_FAULT"

let init_from_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> Ok ()
  | Some v ->
      List.fold_left
        (fun acc s ->
          if String.trim s = "" then acc
          else
            match (acc, parse s) with
            | Ok (), Ok spec ->
                arm spec;
                Ok ()
            | Ok (), Error e -> Error (Printf.sprintf "%s: %s" env_var e)
            | (Error _ as e), _ -> e)
        (Ok ())
        (String.split_on_char ',' v)

let fire point = function
  | Raise ->
      Counter.bump c_fired;
      raise (Injected point)
  | Delay_ms ms ->
      Counter.bump c_fired;
      Unix.sleepf (ms /. 1e3)
  | Exit_code c ->
      Counter.bump c_fired;
      Stdlib.exit c
  | Kill ->
      Counter.bump c_fired;
      (* the point of Kill is that NOTHING runs after it — no at_exit,
         no buffered flush — so crash-safety claims are tested against
         a real dirty death, not a polite shutdown *)
      Unix.kill (Unix.getpid ()) Sys.sigkill

let hit point =
  match Atomic.get armed_specs with
  | [] -> ()
  | specs ->
      List.iter
        (fun a ->
          if a.spec.point = point && Atomic.fetch_and_add a.remaining (-1) = 1
          then fire point a.spec.action)
        specs
