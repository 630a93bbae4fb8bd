open Bbng_core
module Obs = Bbng_obs
module Json = Bbng_obs.Json

(* The census is the repo's long-running workload: exhaustively certify
   every profile of an instance and aggregate the equilibria.  It is
   built crash-first — the profile space is partitioned into pure
   (lo, hi) index shards, each completed shard lands as one digest-
   stamped O_APPEND line in CHECKPOINT.partial, and the final artifact
   is a canonical re-serialization committed atomically — so a SIGKILL
   at any instant loses at most the in-flight shards, and a resumed run
   produces a byte-identical final artifact (fault_smoke stage 12 pins
   this with a cmp). *)

type t = {
  game : Game.t;
  total_profiles : int;
  scanned_profiles : int;
  equilibria : int;
  iso_classes : Strategy.t list;
  iso_class_counts : (Strategy.t * int) list;
  diameter_histogram : (int * int) list;
  min_diameter : int option;
  max_diameter : int option;
}

type outcome =
  | Complete of t
  | Partial of {
      census : t;
      unscanned : (int * int) list;
      why : Obs.Budgeted.why;
    }

type plan = {
  version : Cost.version;
  budgets : Budget.t;
  shard_size : int;
  num_shards : int;
  total : int;
}

type shard = { sid : int; lo : int; hi : int }

type shard_result = {
  shard : shard;
  found : int;
  classes : (Strategy.t * int) list;
  diameters : (int * int) list;
}

(* --- observability --- *)

let c_scanned = Obs.Counter.make "census.profiles_scanned"
let c_equilibria = Obs.Counter.make "census.equilibria_found"
let c_shards = Obs.Counter.make "census.shards_completed"
let c_resumed = Obs.Counter.make "census.shards_resumed"
let c_claims_won = Obs.Counter.make "census.claims_won"
let c_claims_lost = Obs.Counter.make "census.claims_lost"
let c_claims_stale = Obs.Counter.make "census.claims_stale"

(* --- planning --- *)

(* ~64 shards by default, capped so one shard stays an interactive unit
   of progress; the size is recorded in the plan row, so a resumed run
   reuses the original partitioning no matter what the flag says. *)
let default_shard_size total = max 1 (min 4096 ((total + 63) / 64))

let make_plan ?shard_size game =
  let budgets = Game.budgets game in
  let total = Equilibrium.count_profiles budgets in
  if total = max_int then
    invalid_arg "Census.make_plan: profile space saturated (too many profiles)";
  let shard_size =
    match shard_size with
    | Some s when s >= 1 -> s
    | Some _ -> invalid_arg "Census.make_plan: shard size must be >= 1"
    | None -> default_shard_size total
  in
  {
    version = Game.version game;
    budgets;
    shard_size;
    num_shards = (if total = 0 then 0 else (total + shard_size - 1) / shard_size);
    total;
  }

let shards plan =
  List.init plan.num_shards (fun sid ->
      {
        sid;
        lo = sid * plan.shard_size;
        hi = min plan.total ((sid + 1) * plan.shard_size);
      })

let shard_of_plan plan sid =
  if sid < 0 || sid >= plan.num_shards then None
  else
    Some
      {
        sid;
        lo = sid * plan.shard_size;
        hi = min plan.total ((sid + 1) * plan.shard_size);
      }

(* --- checkpoint codec --- *)

(* Every row is digest-stamped (the run ledger's rows are not): the
   digest covers the row minus its own digest field, so a torn tail, a
   truncated line, or a hand-edited row all read as "skipped", never as
   data. *)
let stamp fields =
  let payload = Json.to_string (Json.Obj fields) in
  Json.Obj
    (fields @ [ ("digest", Json.Str (Digest.to_hex (Digest.string payload))) ])

let verify_stamp = function
  | Json.Obj fields -> (
      match List.assoc_opt "digest" fields with
      | Some (Json.Str d) ->
          let bare = List.filter (fun (k, _) -> k <> "digest") fields in
          if Digest.to_hex (Digest.string (Json.to_string (Json.Obj bare))) = d
          then Some bare
          else None
      | _ -> None)
  | _ -> None

let plan_row plan =
  stamp
    [
      ("row", Json.Str "plan");
      ("schema", Json.Int 1);
      ("version", Json.Str (Cost.version_name plan.version));
      ( "budgets",
        Json.List
          (List.map
             (fun b -> Json.Int b)
             (Array.to_list (Budget.to_array plan.budgets))) );
      ("shard_size", Json.Int plan.shard_size);
      ("shards", Json.Int plan.num_shards);
      ("profiles", Json.Int plan.total);
    ]

(* instance key tying shard/claim rows to their plan: rows from another
   instance (or another shard size) in the same file are alien, not
   silently merged *)
let plan_key plan =
  String.sub (Digest.to_hex (Digest.string (Json.to_string (plan_row plan)))) 0 12

let plan_of_fields fields =
  let j = Json.Obj fields in
  match
    ( Json.str_field "version" j,
      Json.member "budgets" j,
      Json.int_field "shard_size" j,
      Json.int_field "profiles" j )
  with
  | Some v, Some (Json.List bs), Some shard_size, Some profiles -> (
      let version =
        match v with "SUM" -> Some Cost.Sum | "MAX" -> Some Cost.Max | _ -> None
      in
      let budgets =
        try
          Some
            (Budget.of_list
               (List.map (function Json.Int i -> i | _ -> raise Exit) bs))
        with _ -> None
      in
      match (version, budgets) with
      | Some version, Some budgets -> (
          (* recompute the derived fields instead of trusting the file;
             a row whose recorded totals disagree is rejected *)
          match make_plan ~shard_size (Game.make version budgets) with
          | exception Invalid_argument _ -> None
          | p -> if p.total = profiles then Some p else None)
      | _ -> None)
  | _ -> None

let shard_row ~key ~provenance r =
  let base =
    [
      ("row", Json.Str "shard");
      ("key", Json.Str key);
      ("sid", Json.Int r.shard.sid);
      ("lo", Json.Int r.shard.lo);
      ("hi", Json.Int r.shard.hi);
      ("found", Json.Int r.found);
      ( "classes",
        Json.List
          (List.map
             (fun (rep, count) ->
               Json.Obj
                 [
                   ("rep", Json.Str (Strategy.to_string rep));
                   ("count", Json.Int count);
                 ])
             r.classes) );
      ( "diams",
        Json.List
          (List.map
             (fun (d, c) -> Json.List [ Json.Int d; Json.Int c ])
             r.diameters) );
    ]
  in
  (* checkpoint rows carry the writer's pid for forensics; the
     canonical rows of the final artifact drop it, so fresh and resumed
     runs commit the same bytes *)
  let prov = if provenance then [ ("pid", Json.Int (Unix.getpid ())) ] else [] in
  stamp (base @ prov)

let shard_of_fields plan fields =
  let j = Json.Obj fields in
  let key = plan_key plan in
  match
    ( Json.str_field "key" j,
      Json.int_field "sid" j,
      Json.int_field "lo" j,
      Json.int_field "hi" j,
      Json.int_field "found" j )
  with
  | Some k, Some sid, Some lo, Some hi, Some found when k = key -> (
      match shard_of_plan plan sid with
      | Some shard when shard.lo = lo && shard.hi = hi && found >= 0 -> (
          let classes =
            match Json.member "classes" j with
            | Some (Json.List l) -> (
                try
                  Some
                    (List.map
                       (fun cj ->
                         match
                           (Json.str_field "rep" cj, Json.int_field "count" cj)
                         with
                         | Some rep, Some count when count > 0 ->
                             (Strategy.of_string rep, count)
                         | _ -> raise Exit)
                       l)
                with _ -> None)
            | _ -> None
          in
          let diameters =
            match Json.member "diams" j with
            | Some (Json.List l) -> (
                try
                  Some
                    (List.map
                       (function
                         | Json.List [ Json.Int d; Json.Int c ] when c > 0 ->
                             (d, c)
                         | _ -> raise Exit)
                       l)
                with Exit -> None)
            | _ -> None
          in
          match (classes, diameters) with
          | Some classes, Some diameters
            when List.fold_left (fun a (_, c) -> a + c) 0 classes = found
                 && List.fold_left (fun a (_, c) -> a + c) 0 diameters = found
                 && List.for_all
                      (fun (rep, _) ->
                        Budget.to_array (Strategy.budgets rep)
                        = Budget.to_array plan.budgets)
                      classes ->
              Some { shard; found; classes; diameters }
          | _ -> None)
      | _ -> None)
  | _ -> None

type claim = { claim_sid : int; claim_pid : int }

let claim_row ~key ~owner ~pid sid =
  stamp
    [
      ("row", Json.Str "claim");
      ("key", Json.Str key);
      ("sid", Json.Int sid);
      ("pid", Json.Int pid);
      ("owner", Json.Str owner);
    ]

let claim_of_fields plan fields =
  let j = Json.Obj fields in
  match
    (Json.str_field "key" j, Json.int_field "sid" j, Json.int_field "pid" j)
  with
  | Some k, Some sid, Some pid when k = plan_key plan ->
      Some { claim_sid = sid; claim_pid = pid }
  | _ -> None

let summary_row plan census =
  let game = Game.make plan.version plan.budgets in
  stamp
    [
      ("row", Json.Str "summary");
      ("key", Json.Str (plan_key plan));
      ("profiles", Json.Int census.total_profiles);
      ("equilibria", Json.Int census.equilibria);
      ("iso_classes", Json.Int (List.length census.iso_classes));
      ( "diams",
        Json.List
          (List.map
             (fun (d, c) -> Json.List [ Json.Int d; Json.Int c ])
             census.diameter_histogram) );
      ( "classes",
        Json.List
          (List.map
             (fun (rep, count) ->
               Json.Obj
                 [
                   ("rep", Json.Str (Strategy.to_string rep));
                   ("count", Json.Int count);
                   ("diameter", Json.Int (Game.social_cost game rep));
                 ])
             census.iso_class_counts) );
    ]

(* Tolerant, Ledger-style load: every line either verifies its digest
   and parses under the expected plan, or is counted skipped — torn
   tails, alien instances and hand-damage all land in the same bucket
   and are simply recomputed.  Duplicate shard rows (racing workers)
   dedup first-wins; [summary] rows are recognized silently so a
   committed final artifact reads back as a complete checkpoint. *)
let read_checkpoint ?expect path =
  let plan = ref expect in
  let had_plan = ref false in
  let results : (int, shard_result) Hashtbl.t = Hashtbl.create 64 in
  let claims = ref [] in
  (* [Some ()] for a row this reader accepts, [None] for one it skips *)
  let row j =
    let ( let* ) = Option.bind in
    let* fields = verify_stamp j in
    let fj = Json.Obj fields in
    match Json.str_field "row" fj with
    | Some "plan" -> (
        let* p = plan_of_fields fields in
        match !plan with
        | None ->
            plan := Some p;
            had_plan := true;
            Some ()
        | Some q when plan_key p = plan_key q ->
            had_plan := true;
            Some ()
        | Some _ -> None)
    | Some "shard" ->
        let* p = !plan in
        let* r = shard_of_fields p fields in
        if not (Hashtbl.mem results r.shard.sid) then
          Hashtbl.add results r.shard.sid r;
        Some ()
    | Some "claim" ->
        let* p = !plan in
        let* c = claim_of_fields p fields in
        claims := c :: !claims;
        Some ()
    | Some "summary" -> Some ()
    | Some _ | None -> None
  in
  let _, skipped =
    if Sys.file_exists path then
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Json.read_lines ic row)
    else ([], 0)
  in
  let sorted =
    Hashtbl.fold (fun _ r acc -> r :: acc) results []
    |> List.sort (fun a b -> compare a.shard.sid b.shard.sid)
  in
  (!plan, !had_plan, sorted, List.rev !claims, skipped)

(* --- scanning and merging --- *)

let histogram_of tbl =
  List.sort compare (Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl [])

let bump tbl d by =
  Hashtbl.replace tbl d (by + Option.value ~default:0 (Hashtbl.find_opt tbl d))

exception Limit_hit

(* The census's one scan of an index range: [shard]'s verdicts in
   order, off the grouped walk, stopping early after [limit] equilibria
   or when [budget] expires.  The result covers the scanned prefix (its
   shard ends where the scan stopped); the flag is [false] iff the
   budget expired.  One [census.shard] span per range: the verdict
   certifications inside record none of their own, so a recording of a
   census of many tiny profiles costs one close per shard, not one per
   player. *)
let scan ?(limit = max_int) ~budget ?progress game shard =
  let n = Game.n game in
  let acc = ref Structure.Iso_acc.empty in
  let diams = Hashtbl.create 8 in
  let found = ref 0 and scanned = ref 0 in
  let completed =
    Obs.Span.with_ "census.shard" @@ fun () ->
    Obs.Budgeted.guard budget (fun () ->
        try
          Equilibrium.iter_verdicts_range game ~lo:shard.lo ~hi:shard.hi
            (fun profile nash ->
              Obs.Budgeted.checkpoint ~cost:n budget;
              incr scanned;
              Obs.Counter.bump c_scanned;
              (match progress with Some p -> Obs.Progress.step p | None -> ());
              if nash then begin
                incr found;
                Obs.Counter.bump c_equilibria;
                acc := Structure.Iso_acc.add !acc profile;
                bump diams (Game.social_cost game profile) 1;
                if !found >= limit then raise Limit_hit
              end)
        with Limit_hit -> ())
    <> None
  in
  ( {
      shard = { shard with hi = shard.lo + !scanned };
      found = !found;
      classes = Structure.Iso_acc.classes !acc;
      diameters = histogram_of diams;
    },
    completed )

let scan_shard ?(budget = Obs.Budgeted.unlimited) ?progress game shard =
  match scan ~budget ?progress game shard with
  | r, true -> Some r
  | _, false -> None

let merge game plan results =
  (* one result's classes are distinct already: each result is
     classified only against the classes of the results before it *)
  let acc =
    List.fold_left
      (fun acc r -> Structure.Iso_acc.add_classes acc r.classes)
      Structure.Iso_acc.empty results
  in
  let diams, found, scanned =
    List.fold_left
      (fun (diams, found, scanned) r ->
        List.iter (fun (d, c) -> bump diams d c) r.diameters;
        (diams, found + r.found, scanned + (r.shard.hi - r.shard.lo)))
      (Hashtbl.create 8, 0, 0) results
  in
  let diameter_histogram = histogram_of diams in
  let iso_class_counts = Structure.Iso_acc.classes acc in
  {
    game;
    total_profiles = plan.total;
    scanned_profiles = scanned;
    equilibria = found;
    iso_classes = List.map fst iso_class_counts;
    iso_class_counts;
    diameter_histogram;
    min_diameter =
      (match diameter_histogram with [] -> None | (d, _) :: _ -> Some d);
    max_diameter =
      (match List.rev diameter_histogram with
      | [] -> None
      | (d, _) :: _ -> Some d);
  }

let unscanned_ranges plan results =
  let present = Array.make (max 1 plan.num_shards) false in
  List.iter
    (fun r ->
      if r.shard.sid >= 0 && r.shard.sid < plan.num_shards then
        present.(r.shard.sid) <- true)
    results;
  let ranges = ref [] in
  let i = ref 0 in
  while !i < plan.num_shards do
    if present.(!i) then incr i
    else begin
      let start = !i in
      while !i < plan.num_shards && not present.(!i) do
        incr i
      done;
      ranges :=
        (start * plan.shard_size, min plan.total (!i * plan.shard_size))
        :: !ranges
    end
  done;
  List.rev !ranges

(* --- committing --- *)

(* Canonical final artifact: plan row, shard rows sorted by id with
   provenance stripped, summary row — a pure function of the census
   data, so fresh, killed+resumed and multi-worker runs all commit the
   same bytes.  The atomic rename announces the artifact to the Ledger
   commit hook; the now-subsumed .partial checkpoint is removed. *)
let commit_final path plan results census =
  let key = plan_key plan in
  let sorted =
    List.sort (fun a b -> compare a.shard.sid b.shard.sid) results
  in
  Obs.Atomic_io.write_file path (fun oc ->
      let line j =
        output_string oc (Json.to_string j);
        output_char oc '\n'
      in
      line (plan_row plan);
      List.iter (fun r -> line (shard_row ~key ~provenance:false r)) sorted;
      line (summary_row plan census));
  (try Sys.remove (Obs.Atomic_io.partial_path path) with Sys_error _ -> ())

let partial_why budget =
  Option.value ~default:Obs.Budgeted.Cancelled (Obs.Budgeted.why budget)

let finish ?checkpoint ~budget game plan results =
  let census = merge game plan results in
  match unscanned_ranges plan results with
  | [] ->
      (match checkpoint with
      | Some path -> commit_final path plan results census
      | None -> ());
      Complete census
  | unscanned -> Partial { census; unscanned; why = partial_why budget }

(* --- the sequential, budget-threaded scan (small instances) --- *)

(* The whole space as one shard, scanned and merged like any other;
   an expired budget leaves the suffix past the scanned prefix. *)
let run ?limit ?(budget = Obs.Budgeted.unlimited) game =
  let plan = make_plan game in
  let r, completed =
    Obs.Progress.with_task ~total:plan.total ~budget "census"
      (fun progress ->
        scan ?limit ~budget ~progress game { sid = 0; lo = 0; hi = plan.total })
  in
  let census = merge game plan [ r ] in
  if completed then Complete census
  else
    Partial
      {
        census;
        unscanned = [ (r.shard.hi, plan.total) ];
        why = partial_why budget;
      }

(* --- the sharded, checkpointed pipeline --- *)

(* Scan the pending shards of [plan] over domains, appending a
   checkpoint row per completed shard; [prior] shards (reloaded from a
   checkpoint) are counted as done without rescanning. *)
let continue_plan ?domains ~budget ?checkpoint game plan ~prior ~ensure_plan_row
    =
  let key = plan_key plan in
  let partial = Option.map Obs.Atomic_io.partial_path checkpoint in
  (match partial with
  | Some p ->
      if ensure_plan_row then
        Obs.Atomic_io.append_line p (Json.to_string (plan_row plan));
      (* resumable state is a first-class artifact: register it so a
         ledger row references it and `runs gc` never calls it dangling *)
      Obs.Ledger.note_artifact p
  | None -> ());
  Obs.Counter.add c_resumed (List.length prior);
  let done_sids = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace done_sids r.shard.sid ()) prior;
  let pending =
    shards plan
    |> List.filter (fun s -> not (Hashtbl.mem done_sids s.sid))
    |> Array.of_list
  in
  let fresh =
    Obs.Progress.with_task ~total:plan.total ~budget "census"
      (fun progress ->
        List.iter
          (fun r -> Obs.Progress.step ~n:(r.shard.hi - r.shard.lo) progress)
          prior;
        Parallel.map_dynamic ?domains ~n:(Array.length pending) (fun i ->
            match scan_shard ~budget ~progress game pending.(i) with
            | None -> None
            | Some r ->
                (match partial with
                | Some p ->
                    (* the injectable instant: SIGKILL here loses the
                       in-flight shard but nothing committed *)
                    Obs.Fault.hit "census.checkpoint";
                    Obs.Atomic_io.append_line p
                      (Json.to_string (shard_row ~key ~provenance:true r))
                | None -> ());
                Obs.Counter.bump c_shards;
                Some r))
  in
  let results =
    prior @ (Array.to_list fresh |> List.filter_map (fun r -> r))
  in
  finish ?checkpoint ~budget game plan results

let run_sharded ?domains ?shard_size ?(budget = Obs.Budgeted.unlimited)
    ?checkpoint game =
  let plan = make_plan ?shard_size game in
  let prior, ensure_plan_row =
    match checkpoint with
    | None -> ([], false)
    | Some path ->
        let partial = Obs.Atomic_io.partial_path path in
        if Sys.file_exists partial then
          let _, had_plan, results, _, _ =
            read_checkpoint ~expect:plan partial
          in
          (results, not had_plan)
        else ([], true)
  in
  continue_plan ?domains ~budget ?checkpoint game plan ~prior ~ensure_plan_row

let normalize_path path =
  if Filename.check_suffix path ".partial" then
    Filename.chop_suffix path ".partial"
  else path

let resume ?domains ?(budget = Obs.Budgeted.unlimited) path =
  let final = normalize_path path in
  let partial = Obs.Atomic_io.partial_path final in
  if Sys.file_exists partial then
    match read_checkpoint partial with
    | Some plan, _, results, _, skipped ->
        let game = Game.make plan.version plan.budgets in
        Ok
          ( continue_plan ?domains ~budget ~checkpoint:final game plan
              ~prior:results ~ensure_plan_row:false,
            skipped )
    | None, _, _, _, skipped ->
        Error
          (Printf.sprintf "%s: no readable census plan row (%d line%s skipped)"
             partial skipped
             (if skipped = 1 then "" else "s"))
  else if Sys.file_exists final then
    match read_checkpoint final with
    | Some plan, _, results, _, skipped -> (
        let game = Game.make plan.version plan.budgets in
        match unscanned_ranges plan results with
        | [] ->
            (* complete artifact, nothing pending: read-only validation,
               no rewrite *)
            Ok (Complete (merge game plan results), skipped)
        | _ ->
            Ok
              ( continue_plan ?domains ~budget ~checkpoint:final game plan
                  ~prior:results ~ensure_plan_row:true,
                skipped ))
    | None, _, _, _, _ ->
        Error (Printf.sprintf "%s: not a census artifact" final)
  else Error (Printf.sprintf "%s: no census checkpoint or artifact" path)

(* --- multi-process worker mode --- *)

let pid_alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true (* EPERM: alive, someone else's *)

(* First live claim in file order wins a shard: O_APPEND gives every
   claim a total order, so two racing workers that both append resolve
   the race identically by re-reading.  A claim whose process died is
   stale and is simply superseded by the next claimant. *)
let effective_claimant claims sid =
  List.find_map
    (fun c ->
      if c.claim_sid = sid && pid_alive c.claim_pid then Some c.claim_pid
      else None)
    claims

let work ?(budget = Obs.Budgeted.unlimited) ?owner ?shard_size ?seed
    ?(backoff_ms = 50.) path =
  let final = normalize_path path in
  let partial = Obs.Atomic_io.partial_path final in
  let owner =
    match owner with
    | Some o -> o
    | None -> Printf.sprintf "pid-%d" (Unix.getpid ())
  in
  let self = Unix.getpid () in
  (* establish the plan: adopt the checkpoint's, or seed a fresh one.
     Two workers racing to seed both append the same canonical plan row
     (it is a pure function of the instance), so first-wins dedup makes
     the race harmless. *)
  let plan =
    let from_file =
      if Sys.file_exists partial then
        match read_checkpoint partial with p, _, _, _, _ -> p
      else if Sys.file_exists final then
        match read_checkpoint final with p, _, _, _, _ -> p
      else None
    in
    match (from_file, seed) with
    | Some p, _ -> Ok p
    | None, Some game -> (
        match make_plan ?shard_size game with
        | p ->
            Obs.Atomic_io.append_line partial (Json.to_string (plan_row p));
            Ok p
        | exception Invalid_argument msg -> Error msg)
    | None, None ->
        Error
          (Printf.sprintf
             "%s: no census plan to work on (seed one with --budgets)" path)
  in
  match plan with
  | Error _ as e -> e
  | Ok plan ->
      let key = plan_key plan in
      let game = Game.make plan.version plan.budgets in
      Obs.Ledger.note_artifact partial;
      let backoff attempts =
        (* exponential, capped: waiting on a live peer's in-flight shard *)
        let ms = min (backoff_ms *. (2. ** float_of_int attempts)) 2000. in
        Unix.sleepf (ms /. 1000.)
      in
      let result =
        Obs.Progress.with_task ~total:plan.total ~budget "census"
          (fun progress ->
            let rec loop attempts =
              if Obs.Budgeted.expired budget then
                let _, _, results, _, _ = read_checkpoint ~expect:plan partial in
                finish ~budget game plan results
              else
                let _, _, results, claims, _ =
                  read_checkpoint ~expect:plan partial
                in
                let done_sids = Hashtbl.create 64 in
                List.iter
                  (fun r -> Hashtbl.replace done_sids r.shard.sid ())
                  results;
                let pending =
                  shards plan
                  |> List.filter (fun s -> not (Hashtbl.mem done_sids s.sid))
                in
                if pending = [] then finish ~checkpoint:final ~budget game plan results
                else
                  let claimable =
                    List.find_opt
                      (fun s ->
                        match effective_claimant claims s.sid with
                        | None -> true
                        | Some pid -> pid = self)
                      pending
                  in
                  match claimable with
                  | None ->
                      (* every pending shard is in flight on a live peer:
                         back off and re-read — a peer that dies turns its
                         claim stale and reopens the shard *)
                      backoff attempts;
                      loop (min 6 (attempts + 1))
                  | Some s -> (
                      (if
                         List.exists
                           (fun c ->
                             c.claim_sid = s.sid && not (pid_alive c.claim_pid))
                           claims
                       then Obs.Counter.bump c_claims_stale);
                      Obs.Fault.hit "census.claim";
                      Obs.Atomic_io.append_line partial
                        (Json.to_string (claim_row ~key ~owner ~pid:self s.sid));
                      let _, _, _, claims, _ =
                        read_checkpoint ~expect:plan partial
                      in
                      match effective_claimant claims s.sid with
                      | Some pid when pid <> self ->
                          (* lost the race; the winner is alive and
                             scanning — move to another shard *)
                          Obs.Counter.bump c_claims_lost;
                          loop 0
                      | _ -> (
                          Obs.Counter.bump c_claims_won;
                          match scan_shard ~budget ~progress game s with
                          | None ->
                              let _, _, results, _, _ =
                                read_checkpoint ~expect:plan partial
                              in
                              finish ~budget game plan results
                          | Some r ->
                              Obs.Fault.hit "census.checkpoint";
                              Obs.Atomic_io.append_line partial
                                (Json.to_string
                                   (shard_row ~key ~provenance:true r));
                              Obs.Counter.bump c_shards;
                              loop 0))
            in
            loop 0)
      in
      Ok result

(* --- derived statistics and printing --- *)

let price_of_anarchy census =
  match census.max_diameter with
  | None -> None
  | Some worst -> (
      match Poa.opt_diameter_exact (Game.budgets census.game) with
      | Some opt when opt > 0 -> Some { Poa.num = worst; den = opt }
      | Some _ -> Some { Poa.num = 1; den = 1 }
      | None -> None)

let pp_summary ppf c =
  Format.fprintf ppf "@[<v>%a: %d profiles" Game.pp c.game c.total_profiles;
  if c.scanned_profiles < c.total_profiles then
    Format.fprintf ppf " (%d scanned)" c.scanned_profiles;
  Format.fprintf ppf ", %d equilibria in %d isomorphism classes@,diameters:"
    c.equilibria
    (List.length c.iso_classes);
  List.iter
    (fun (d, count) -> Format.fprintf ppf " %d(x%d)" d count)
    c.diameter_histogram;
  Format.fprintf ppf "@]"

let pp_outcome ppf = function
  | Complete c -> pp_summary ppf c
  | Partial { census; unscanned; why } ->
      Format.fprintf ppf "%a@,partial (%s): %d unscanned range%s:" pp_summary
        census
        (Obs.Budgeted.why_name why)
        (List.length unscanned)
        (if List.length unscanned = 1 then "" else "s");
      List.iter
        (fun (lo, hi) -> Format.fprintf ppf " [%d,%d)" lo hi)
        unscanned
