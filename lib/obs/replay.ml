type step = {
  index : int;
  player : int;
  old_cost : int;
  new_cost : int;
  social_cost : int;
  old_targets : int array option;
  new_targets : int array option;
}

type outcome = {
  outcome : string;
  total_steps : int;
  period : int option;
  final_social_cost : int option;
  final_profile : string option;
}

type run = {
  version : string option;
  budgets : int array option;
  start_profile : string option;
  rule : string option;
  schedule : string option;
  max_steps : int option;
  meta : (string * Json.t) list;
  steps : step list;
  run_outcome : outcome option;
}

(* Fields the parser consumes by name; anything else in a
   dynamics.start event is preserved as run metadata (the recorder's
   ?meta fields — seed and friends — travel there). *)
let structural_start_fields =
  [ "event"; "ts_us"; "rule"; "schedule"; "version"; "budgets"; "profile";
    "players"; "max_steps"; "social_cost" ]

let parse_step j =
  match
    ( Json.int_field "step" j,
      Json.int_field "player" j,
      Json.int_field "old_cost" j,
      Json.int_field "new_cost" j,
      Json.int_field "social_cost" j )
  with
  | Some index, Some player, Some old_cost, Some new_cost, Some social_cost ->
      Some
        {
          index;
          player;
          old_cost;
          new_cost;
          social_cost;
          old_targets = Json.int_array_field "old_targets" j;
          new_targets = Json.int_array_field "new_targets" j;
        }
  | _ -> None

let parse_outcome j =
  match (Json.str_field "outcome" j, Json.int_field "steps" j) with
  | Some outcome, Some total_steps ->
      Some
        {
          outcome;
          total_steps;
          period = Json.int_field "period" j;
          final_social_cost = Json.int_field "social_cost" j;
          final_profile = Json.str_field "profile" j;
        }
  | _ -> None

let empty_run =
  {
    version = None;
    budgets = None;
    start_profile = None;
    rule = None;
    schedule = None;
    max_steps = None;
    meta = [];
    steps = [];
    run_outcome = None;
  }

let start_run j =
  {
    empty_run with
    version = Json.str_field "version" j;
    budgets = Json.int_array_field "budgets" j;
    start_profile = Json.str_field "profile" j;
    rule = Json.str_field "rule" j;
    schedule = Json.str_field "schedule" j;
    max_steps = Json.int_field "max_steps" j;
    meta =
      (match j with
      | Json.Obj fields ->
          List.filter
            (fun (k, _) -> not (List.mem k structural_start_fields))
            fields
      | _ -> []);
  }

let runs_of_events events =
  (* a report may hold several recorded runs back to back; each
     dynamics.start opens one, its steps accumulate until the matching
     dynamics.outcome closes it (an unclosed run — interrupted process —
     is kept with run_outcome = None) *)
  let finished = ref [] in
  let current = ref None in
  let close () =
    match !current with
    | Some r -> (
        finished := { r with steps = List.rev r.steps } :: !finished;
        current := None)
    | None -> ()
  in
  List.iter
    (fun j ->
      match Json.event_name j with
      | "dynamics.start" ->
          close ();
          current := Some (start_run j)
      | "dynamics.step" -> (
          match (parse_step j, !current) with
          | Some s, Some r -> current := Some { r with steps = s :: r.steps }
          | Some s, None ->
              (* steps without a recorded header still form a run; replay
                 will fail cleanly for lack of a reconstruction base *)
              current := Some { empty_run with steps = [ s ] }
          | None, _ -> ())
      | "dynamics.outcome" -> (
          match parse_outcome j with
          | Some o ->
              let r = Option.value !current ~default:empty_run in
              let r =
                {
                  r with
                  rule =
                    (match r.rule with None -> Json.str_field "rule" j | s -> s);
                  schedule =
                    (match r.schedule with
                    | None -> Json.str_field "schedule" j
                    | s -> s);
                  run_outcome = Some o;
                }
              in
              current := Some r;
              close ()
          | None -> ())
      | _ -> ())
    events;
  close ();
  List.rev !finished
