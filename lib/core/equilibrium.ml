module Combinatorics = Bbng_graph.Combinatorics
module Json = Bbng_obs.Json

let c_players = Bbng_obs.Counter.make "equilibrium.players_certified"
let c_early_exits = Bbng_obs.Counter.make "equilibrium.early_exits"
let c_certificates = Bbng_obs.Counter.make "equilibrium.certificates_produced"
let c_verified = Bbng_obs.Counter.make "equilibrium.certificates_verified"

type refutation = {
  player : int;
  better : Best_response.move;
  current_cost : int;
}

type verdict =
  | Equilibrium
  | Refuted of refutation
  | Degraded of int list

(* Every per-player audit of every certifier funnels through here: one
   counter bump.  Only the certificate producers add a per-player span
   (see [produce]), one per evidence entry; a verdict certification
   records none, so a census of many tiny profiles is not dominated by
   span closes. *)
let audit_player auditor game profile player =
  Bbng_obs.Counter.bump c_players;
  auditor game profile player

(* Evidence in player order, up to and including the first refutation;
   [audit_of] is asked only for the players it returns. *)
let evidence_upto_refutation n audit_of =
  let rec from player =
    if player >= n then []
    else
      let a = audit_of player in
      (player, a)
      :: (if a.Best_response.improving <> None then [] else from (player + 1))
  in
  from 0

(* The one sequential loop: players [0, upto) (default all) are
   audited in order and the first refutation ends it — an early exit
   when players were left unaudited. *)
let audit_in_order ?upto auditor game profile =
  let n = Option.value upto ~default:(Game.n game) in
  let evidence =
    evidence_upto_refutation n (audit_player auditor game profile)
  in
  if List.length evidence < n then Bbng_obs.Counter.bump c_early_exits;
  evidence

(* The refutation's current cost is the one the audit priced: no second
   realization of the profile. *)
let verdict_of_evidence evidence =
  let rec go unresolved = function
    | [] ->
        (* no improvement found anywhere; the claim is an equilibrium
           only if every scan ran to completion *)
        if unresolved = [] then Equilibrium else Degraded (List.rev unresolved)
    | (player, (a : Best_response.audit)) :: rest -> (
        match a.Best_response.improving with
        | Some better ->
            Refuted { player; better; current_cost = a.Best_response.current }
        | None ->
            go
              (if a.Best_response.tier = Best_response.Degraded_scan then
                 player :: unresolved
               else unresolved)
              rest)
  in
  go [] evidence

let certify game profile =
  verdict_of_evidence (audit_in_order Best_response.audit_exact game profile)

let is_nash game profile = certify game profile = Equilibrium

let certify_parallel ?domains game profile =
  let n = Game.n game in
  match
    Parallel.find_map ?domains ~n (fun player ->
        let a = audit_player Best_response.audit_exact game profile player in
        Option.map (fun _ -> (player, a)) a.Best_response.improving)
  with
  | Some ((player, _) as refuting) ->
      (* first to finish, so players after it may have been skipped *)
      if player < n - 1 then Bbng_obs.Counter.bump c_early_exits;
      verdict_of_evidence [ refuting ]
  | None -> Equilibrium

let is_nash_parallel ?domains game profile =
  certify_parallel ?domains game profile = Equilibrium

let certify_swap game profile =
  verdict_of_evidence (audit_in_order Best_response.audit_swap game profile)

let is_swap_stable game profile = certify_swap game profile = Equilibrium

let digraph_is_nash version g =
  let profile = Strategy.of_digraph g in
  is_nash (Game.make version (Strategy.budgets profile)) profile

(* --- certificates: the audited variants, serialized evidence --- *)

type mode = Exact_mode | Swap_mode

let mode_name = function Exact_mode -> "exact" | Swap_mode -> "swap"

let mode_of_name = function
  | "exact" -> Some Exact_mode
  | "swap" -> Some Swap_mode
  | _ -> None

(* The candidate space a [mode] audit of a budget-[b] player sets out
   to scan: what its evidence records as [candidates], re-counted here
   for the verifier and the heartbeat. *)
let mode_space mode ~n b =
  match mode with
  | Exact_mode -> Combinatorics.binomial (n - 1) b
  | Swap_mode -> Combinatorics.Exact (b * (n - 1 - b))

type certificate = {
  cert_version : Cost.version;
  cert_mode : mode;
  cert_profile : Strategy.t;
  cert_evidence : (int * Best_response.audit) list;
}

let certificate_verdict cert = verdict_of_evidence cert.cert_evidence

let verdict_name = function
  | Equilibrium -> "equilibrium"
  | Refuted _ -> "refuted"
  | Degraded _ -> "degraded"

(* Work-total estimate for a certification's heartbeat: the sum of the
   per-player candidate spaces, saturating — [max_int] reads as
   "unknown" in {!Bbng_obs.Progress}, so a saturated space simply
   drops total/ETA from the beats instead of faking a number.  Audits
   step by their [scanned] count, so done/total use the same unit. *)
let certify_work_total mode game =
  let n = Game.n game in
  let budgets = Game.budgets game in
  let acc = ref 0 in
  for p = 0 to n - 1 do
    let c =
      match mode_space mode ~n (Budget.get budgets p) with
      | Combinatorics.Exact c -> c
      | Combinatorics.Saturated -> max_int
    in
    acc := (if c = max_int || !acc > max_int - c then max_int else !acc + c)
  done;
  !acc

(* pruned tiers scan 0 candidates but still certify a player; count
   them as one unit so the heartbeat advances through lemma-covered
   prefixes too *)
let progress_audit progress (a : Best_response.audit) =
  Bbng_obs.Progress.step ~n:(max 1 a.Best_response.scanned) progress

(* game-semantic telemetry on every produced certificate: the profile's
   social cost and the max regret the evidence exhibits (the refuting
   player's improvement; an exact 0 on a certified equilibrium) land in
   gauges and in the run's ledger row, so `bbng_cli runs` can answer
   how-far-from-equilibrium questions without reopening artifacts *)
let g_social = Bbng_obs.Gauge.make "equilibrium.social_cost"
let g_regret = Bbng_obs.Gauge.make "equilibrium.max_regret"

let observe_certificate game cert =
  let social = Game.social_cost game cert.cert_profile in
  let max_regret =
    List.fold_left
      (fun acc (_, (a : Best_response.audit)) ->
        match a.Best_response.improving with
        | Some m -> max acc (a.Best_response.current - m.Best_response.cost)
        | None -> acc)
      0 cert.cert_evidence
  in
  Bbng_obs.Gauge.set_int g_social social;
  Bbng_obs.Gauge.set_int g_regret max_regret;
  let verdict = verdict_name (certificate_verdict cert) in
  Bbng_obs.Ledger.add_metric "equilibrium.social_cost" (Json.Int social);
  Bbng_obs.Ledger.add_metric "equilibrium.max_regret" (Json.Int max_regret);
  Bbng_obs.Ledger.add_metric "equilibrium.verdict" (Json.Str verdict);
  Bbng_obs.Ledger.note_outcome verdict;
  cert

(* What only the certificate producers pay for: the
   [equilibrium.certify] span, an [equilibrium.certify_player] span and
   a heartbeat step per audit, and the telemetry above.  [evidence]
   gets the [mode]'s auditor with the span and the step wrapped in. *)
let produce ?budget mode game profile evidence =
  Bbng_obs.Span.with_ "equilibrium.certify" @@ fun () ->
  Bbng_obs.Counter.bump c_certificates;
  let auditor =
    match mode with
    | Exact_mode -> Best_response.audit_exact ?budget
    | Swap_mode -> Best_response.audit_swap ?budget
  in
  let evidence =
    Bbng_obs.Progress.with_task ?budget
      ~total:(certify_work_total mode game)
      "certify"
      (fun progress ->
        evidence (fun game profile player ->
            let a =
              Bbng_obs.Span.with_ "equilibrium.certify_player" (fun () ->
                  auditor game profile player)
            in
            progress_audit progress a;
            a))
  in
  observe_certificate game
    {
      cert_version = Game.version game;
      cert_mode = mode;
      cert_profile = profile;
      cert_evidence = evidence;
    }

let certify_cert ?budget game profile =
  produce ?budget Exact_mode game profile (fun auditor ->
      audit_in_order auditor game profile)

let certify_swap_cert ?budget game profile =
  produce ?budget Swap_mode game profile (fun auditor ->
      audit_in_order auditor game profile)

let certify_parallel_cert ?domains ?budget game profile =
  let n = Game.n game in
  produce ?budget Exact_mode game profile (fun auditor ->
      (* each audit builds its own evaluation context, so every domain
         owns its rows: nothing of the distance-row cache crosses
         domains.  The progress task IS shared: every worker steps it
         by its scan count, and the ticker's CAS elects one beat
         emitter at a time. *)
      let audits =
        Parallel.map ?domains ~n (audit_player auditor game profile)
      in
      (* truncate after the first (lowest-player) refutation so the
         evidence shape — and the witness — matches the sequential
         certifier, which makes the parallel variant deterministic where
         [certify_parallel] is first-to-finish *)
      evidence_upto_refutation n (Array.get audits))

(* --- certificate (de)serialization through the artifact envelope --- *)

let certificate_kind = "bbng.equilibrium-certificate"

let int_array_json a =
  Json.List (Array.to_list (Array.map (fun i -> Json.Int i) a))

let move_fields prefix (m : Best_response.move) =
  [
    (prefix ^ "_targets", int_array_json m.Best_response.targets);
    (prefix ^ "_cost", Json.Int m.Best_response.cost);
  ]

let count_to_json = function
  | Combinatorics.Exact c -> Json.Int c
  | Combinatorics.Saturated -> Json.Str "saturated"

let evidence_to_json (player, (a : Best_response.audit)) =
  Json.Obj
    ([
       ("player", Json.Int player);
       ("tier", Json.Str (Best_response.tier_name a.Best_response.tier));
       ("engine", Json.Str (Deviation_eval.engine_name a.Best_response.engine));
       ("scanned", Json.Int a.Best_response.scanned);
       ("candidates", count_to_json a.Best_response.candidates);
       ("current_cost", Json.Int a.Best_response.current);
     ]
    @ (match a.Best_response.best with
      | None -> []
      | Some m -> move_fields "best" m)
    @
    match a.Best_response.improving with
    | None -> []
    | Some m -> move_fields "improving" m)

let certificate_to_artifact cert =
  let verdict = certificate_verdict cert in
  Bbng_obs.Certificate.make ~kind:certificate_kind
    ([
       ("version", Json.Str (Cost.version_name cert.cert_version));
       ("mode", Json.Str (mode_name cert.cert_mode));
       ( "budgets",
         int_array_json (Budget.to_array (Strategy.budgets cert.cert_profile)) );
       ("profile", Json.Str (Strategy.to_string cert.cert_profile));
       ("verdict", Json.Str (verdict_name verdict));
     ]
    @ (match verdict with
      (* degraded provenance: the flag plus the unresolved players,
         explicit in the artifact so downstream tooling never mistakes
         partial evidence for an equilibrium proof *)
      | Degraded unresolved ->
          [
            ("degraded", Json.Bool true);
            ( "unresolved_players",
              Json.List (List.map (fun p -> Json.Int p) unresolved) );
          ]
      | Equilibrium | Refuted _ -> [])
    @ [ ("players", Json.List (List.map evidence_to_json cert.cert_evidence)) ])


let move_of_json prefix j =
  match
    ( Json.int_array_field (prefix ^ "_targets") j,
      Json.int_field (prefix ^ "_cost") j )
  with
  | Some targets, Some cost -> Some { Best_response.targets; cost }
  | _ -> None

let ( let* ) = Result.bind

(* [~space] recomputes a tier's candidate-space size from the profile;
   certificates written before the engine/candidates fields existed
   fall back to it (and to the overlay engine), so old artifacts keep
   verifying.  An explicit but unknown value is a hard error, never a
   silent default. *)
let evidence_of_json ~space j =
  let engine =
    match Json.member "engine" j with
    | None -> Ok Deviation_eval.Bfs_overlay
    | Some (Json.Str s) -> (
        match Deviation_eval.engine_of_name s with
        | Some e -> Ok e
        | None -> Error (Printf.sprintf "certificate: unknown engine %S" s))
    | Some _ -> Error "certificate: malformed engine field"
  in
  let candidates player tier =
    match Json.member "candidates" j with
    | None -> Ok (space player tier)
    | Some (Json.Int c) when c >= 0 -> Ok (Combinatorics.Exact c)
    | Some (Json.Str "saturated") -> Ok Combinatorics.Saturated
    | Some _ -> Error "certificate: malformed candidates field"
  in
  match
    ( Json.int_field "player" j,
      Option.bind (Json.str_field "tier" j) Best_response.tier_of_name,
      Json.int_field "scanned" j,
      Json.int_field "current_cost" j )
  with
  | Some player, Some tier, Some scanned, Some current ->
      let* engine = engine in
      let* candidates = candidates player tier in
      Ok
        ( player,
          {
            Best_response.tier;
            engine;
            scanned;
            candidates;
            current;
            best = move_of_json "best" j;
            improving = move_of_json "improving" j;
          } )
  | _ -> Error "certificate: malformed player evidence"

let certificate_of_artifact (art : Bbng_obs.Certificate.t) =
  if art.Bbng_obs.Certificate.kind <> certificate_kind then
    Error
      (Printf.sprintf "not an equilibrium certificate (kind %S)"
         art.Bbng_obs.Certificate.kind)
  else
    let body = Json.Obj art.Bbng_obs.Certificate.body in
    let* version =
      match Json.str_field "version" body with
      | Some "MAX" -> Ok Cost.Max
      | Some "SUM" -> Ok Cost.Sum
      | Some v -> Error (Printf.sprintf "certificate: unknown version %S" v)
      | None -> Error "certificate: missing version"
    in
    let* mode =
      match Option.bind (Json.str_field "mode" body) mode_of_name with
      | Some m -> Ok m
      | None -> Error "certificate: missing or unknown mode"
    in
    let* budgets =
      match Json.int_array_field "budgets" body with
      | Some b -> Ok b
      | None -> Error "certificate: missing budgets"
    in
    let* profile =
      match Json.str_field "profile" body with
      | None -> Error "certificate: missing profile"
      | Some s -> (
          match Strategy.of_string s with
          | exception Invalid_argument msg ->
              Error (Printf.sprintf "certificate: bad profile: %s" msg)
          | p -> Ok p)
    in
    let* () =
      if Budget.to_array (Strategy.budgets profile) = budgets then Ok ()
      else Error "certificate: recorded budgets disagree with the profile"
    in
    let space player tier =
      let n = Strategy.n profile in
      let b =
        if player >= 0 && player < n then
          Budget.get (Strategy.budgets profile) player
        else 0
      in
      match (tier : Best_response.tier) with
      | Best_response.Cost_floor | Best_response.Lemma_2_2_tier ->
          Combinatorics.Exact 0
      | Best_response.Exhaustive -> mode_space Exact_mode ~n b
      | Best_response.Swap_exhaustive -> mode_space Swap_mode ~n b
      | Best_response.Degraded_scan -> mode_space mode ~n b
    in
    let* evidence =
      match Json.member "players" body with
      | Some (Json.List l) ->
          List.fold_left
            (fun acc j ->
              let* acc = acc in
              let* e = evidence_of_json ~space j in
              Ok (e :: acc))
            (Ok []) l
          |> Result.map List.rev
      | _ -> Error "certificate: missing players evidence"
    in
    let cert =
      {
        cert_version = version;
        cert_mode = mode;
        cert_profile = profile;
        cert_evidence = evidence;
      }
    in
    let derived_verdict = certificate_verdict cert in
    let* () =
      let recorded = Json.str_field "verdict" body in
      let derived = verdict_name derived_verdict in
      if recorded = Some derived then Ok ()
      else
        Error
          (Printf.sprintf
             "certificate: recorded verdict %s disagrees with its evidence \
              (%s)"
             (Option.value ~default:"(missing)" recorded)
             derived)
    in
    (* the [degraded] provenance flag must agree with the evidence both
       ways: a degraded verdict without the flag, or the flag on a
       complete certificate, is a tampered/miswritten artifact *)
    let* () =
      let flagged =
        match Json.member "degraded" body with
        | Some (Json.Bool b) -> b
        | Some _ | None -> false
      in
      match (derived_verdict, flagged) with
      | Degraded _, true | (Equilibrium | Refuted _), false -> Ok ()
      | Degraded _, false ->
          Error
            "certificate: degraded evidence without the degraded provenance \
             flag"
      | (Equilibrium | Refuted _), true ->
          Error
            "certificate: degraded provenance flag on non-degraded evidence"
    in
    let* () =
      match derived_verdict with
      | Equilibrium | Refuted _ -> Ok ()
      | Degraded unresolved -> (
          match Json.member "unresolved_players" body with
          | None -> Ok () (* optional detail; the flag is the contract *)
          | Some (Json.List l)
            when List.map (fun p -> Json.Int p) unresolved = l ->
              Ok ()
          | Some _ ->
              Error
                "certificate: recorded unresolved players disagree with the \
                 evidence")
    in
    Ok cert

let write_certificate path cert =
  Bbng_obs.Certificate.write path (certificate_to_artifact cert)

let read_certificate path =
  let* art = Bbng_obs.Certificate.read path in
  certificate_of_artifact art

(* --- independent certificate verification --- *)

(* Candidate re-evaluation deliberately avoids the engine that
   produced the evidence, so a bug in one pricing path cannot both
   produce and bless a certificate: overlay-BFS evidence is re-priced
   through the distance-row engine, and rows evidence through
   [Game.deviation_cost], the generic evaluator that rebuilds the
   whole graph per candidate and shares nothing with the row cache. *)

let sample_subset rng n player b =
  let candidates = Array.init (n - 1) (fun i -> if i < player then i else i + 1) in
  for k = 0 to b - 1 do
    let j = k + Random.State.int rng (Array.length candidates - k) in
    let tmp = candidates.(k) in
    candidates.(k) <- candidates.(j);
    candidates.(j) <- tmp
  done;
  let s = Array.sub candidates 0 b in
  Array.sort compare s;
  s

let sample_swap rng owned n player =
  let drop = Random.State.int rng (Array.length owned) in
  let is_owned v = Array.exists (fun w -> w = v) owned in
  let rec fresh () =
    let v = Random.State.int rng n in
    if v = player || is_owned v then fresh () else v
  in
  let targets = Array.mapi (fun i w -> if i = drop then fresh () else w) owned in
  Array.sort compare targets;
  targets

let verify_certificate ?(samples = 32) cert =
  Bbng_obs.Counter.bump c_verified;
  let profile = cert.cert_profile in
  let budgets = Strategy.budgets profile in
  let game = Game.make cert.cert_version budgets in
  let n = Game.n game in
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  let in_degree player =
    let count = ref 0 in
    for i = 0 to n - 1 do
      if i <> player && Array.exists (fun v -> v = player) (Strategy.strategy profile i)
      then incr count
    done;
    !count
  in
  let check_evidence (player, (a : Best_response.audit)) =
    if player < 0 || player >= n then fail "evidence for player %d of %d" player n
    else
      let budget = Budget.get budgets player in
      (* cross-engine pricing: whichever engine produced the evidence,
         re-price through the other one.  The context is lazy so pruned
         tiers (which price nothing) never pay for it. *)
      let price =
        match a.Best_response.engine with
        | Deviation_eval.Rows ->
            fun targets -> Game.deviation_cost game profile ~player ~targets
        | Deviation_eval.Bfs_overlay ->
            let ctx =
              lazy
                (Deviation_eval.make
                   ~engine:Deviation_eval.Rows
                   cert.cert_version profile ~player)
            in
            fun targets -> Deviation_eval.cost (Lazy.force ctx) targets
      in
      let reprice targets =
        (* validates the targets (range, budget, no self/duplicates)
           before pricing them *)
        match Strategy.with_strategy profile ~player ~targets with
        | exception Invalid_argument msg -> Error msg
        | _ -> Ok (price targets)
      in
      let check_move what (m : Best_response.move) =
        match reprice m.Best_response.targets with
        | Error msg -> fail "player %d: invalid %s targets (%s)" player what msg
        | Ok cost when cost <> m.Best_response.cost ->
            fail "player %d: recorded %s cost %d, re-evaluated %d" player what
              m.Best_response.cost cost
        | Ok _ -> Ok ()
      in
      let spot_check current make_sample count =
        let rng = Random.State.make [| 0xCE27; n; player |] in
        let rec go i =
          if i >= count then Ok ()
          else
            let targets = make_sample rng in
            match reprice targets with
            | Error msg ->
                fail "player %d: sampler produced bad targets (%s)" player msg
            | Ok cost when cost < current ->
                fail
                  "player %d: spot-check found an unrecorded improvement (cost \
                   %d < %d)"
                  player cost current
            | Ok _ -> go (i + 1)
        in
        if budget = 0 then Ok () else go 0
      in
      let check_candidates recomputed =
        if a.Best_response.candidates <> recomputed then
          fail "player %d: recorded candidate space %s, recomputed %s" player
            (Combinatorics.count_to_string a.Best_response.candidates)
            (Combinatorics.count_to_string recomputed)
        else Ok ()
      in
      let current = Game.player_cost game profile player in
      if a.Best_response.current <> current then
        fail "player %d: recorded current cost %d, re-evaluated %d" player
          a.Best_response.current current
      else
        let* () =
          match a.Best_response.improving with
          | None -> Ok ()
          | Some m ->
              let* () = check_move "improving" m in
              if m.Best_response.cost >= current then
                fail "player %d: recorded improvement does not improve (%d >= %d)"
                  player m.Best_response.cost current
              else Ok ()
        in
        match a.Best_response.tier with
        | Best_response.Cost_floor ->
            let floor =
              Cost.cost_floor cert.cert_version ~n ~budget
                ~in_degree:(in_degree player)
            in
            let* () = check_candidates (Combinatorics.Exact 0) in
            if a.Best_response.improving <> None then
              fail "player %d: cost-floor tier cannot carry an improvement" player
            else if current > floor then
              fail "player %d: cost %d is above the recomputed floor %d" player
                current floor
            else Ok ()
        | Best_response.Lemma_2_2_tier ->
            let* () = check_candidates (Combinatorics.Exact 0) in
            if cert.cert_mode <> Exact_mode then
              fail "player %d: lemma-2.2 tier in a swap certificate" player
            else if a.Best_response.improving <> None then
              fail "player %d: lemma-2.2 tier cannot carry an improvement" player
            else if not (Best_response.satisfies_lemma_2_2 profile player) then
              fail "player %d: Lemma 2.2's condition does not hold" player
            else Ok ()
        | Best_response.Exhaustive -> (
            if cert.cert_mode <> Exact_mode then
              fail "player %d: exact tier in a swap certificate" player
            else
              let expected = mode_space Exact_mode ~n budget in
              let* () = check_candidates expected in
              match a.Best_response.improving with
              | Some _ -> (
                  match expected with
                  | Combinatorics.Exact e when a.Best_response.scanned > e ->
                      fail "player %d: scanned %d of %d candidates" player
                        a.Best_response.scanned e
                  | Combinatorics.Exact _ | Combinatorics.Saturated -> Ok ())
              | None -> (
                  match expected with
                  | Combinatorics.Saturated ->
                      (* a saturated space has more than max_int
                         candidates: no finite scan count can cover it,
                         so a complete-scan claim is a lie on its face *)
                      fail
                        "player %d: complete scan claimed over a saturated \
                         candidate space (more than max_int candidates)"
                        player
                  | Combinatorics.Exact e -> (
                      if a.Best_response.scanned <> e then
                        fail
                          "player %d: complete scan claimed but scanned %d of \
                           %d candidates"
                          player a.Best_response.scanned e
                      else
                        match a.Best_response.best with
                        | None ->
                            fail "player %d: complete scan without a best" player
                        | Some m ->
                            let* () = check_move "best" m in
                            if m.Best_response.cost < current then
                              fail
                                "player %d: best candidate %d beats the current \
                                 cost %d yet no improvement was recorded"
                                player m.Best_response.cost current
                            else
                              spot_check current
                                (fun rng -> sample_subset rng n player budget)
                                samples)))
        | Best_response.Swap_exhaustive -> (
            if cert.cert_mode <> Swap_mode then
              fail "player %d: swap tier in an exact certificate" player
            else
              let expected = budget * (n - 1 - budget) in
              let* () = check_candidates (Combinatorics.Exact expected) in
              match a.Best_response.improving with
              | Some _ ->
                  if a.Best_response.scanned > expected then
                    fail "player %d: scanned %d of %d swaps" player
                      a.Best_response.scanned expected
                  else Ok ()
              | None ->
                  if a.Best_response.scanned <> expected then
                    fail "player %d: complete swap scan claimed but scanned %d of %d"
                      player a.Best_response.scanned expected
                  else
                    let* () =
                      match a.Best_response.best with
                      | None when expected = 0 -> Ok ()
                      | None -> fail "player %d: complete scan without a best" player
                      | Some m ->
                          let* () = check_move "best" m in
                          if m.Best_response.cost < current then
                            fail
                              "player %d: best swap %d beats the current cost %d \
                               yet no improvement was recorded"
                              player m.Best_response.cost current
                          else Ok ()
                    in
                    if expected = 0 then Ok ()
                    else
                      spot_check current
                        (fun rng ->
                          sample_swap rng (Strategy.strategy profile player) n
                            player)
                        samples)
        | Best_response.Degraded_scan -> (
            (* partial evidence: the scan was interrupted, so the only
               checkable claims are (a) it stopped short of a complete
               scan, (b) it found no improvement, and (c) whatever
               candidate it recorded as cheapest re-prices correctly
               and does not secretly improve.  No spot-check: absence
               of improvement over unscanned candidates is exactly what
               a degraded tier does NOT claim. *)
            let expected = mode_space cert.cert_mode ~n budget in
            let* () = check_candidates expected in
            let scan_completed =
              (* an interrupted scan of a saturated space is trivially
                 short: scanned is an int, the space is bigger than any *)
              match expected with
              | Combinatorics.Exact e -> a.Best_response.scanned >= e
              | Combinatorics.Saturated -> false
            in
            if a.Best_response.improving <> None then
              fail
                "player %d: degraded tier cannot carry an improvement (a \
                 found improvement always completes the audit as a \
                 refutation)"
                player
            else if scan_completed then
              fail
                "player %d: degraded tier claims an interrupted scan but \
                 scanned %d of %s candidates"
                player a.Best_response.scanned
                (Combinatorics.count_to_string expected)
            else
              match a.Best_response.best with
              | None -> Ok ()
              | Some m ->
                  let* () = check_move "best" m in
                  if m.Best_response.cost < current then
                    fail
                      "player %d: best candidate %d beats the current cost %d \
                       yet no improvement was recorded"
                      player m.Best_response.cost current
                  else Ok ())
  in
  (* evidence must be players 0..k in order; an equilibrium claim needs
     every player, a refutation needs clean evidence up to its witness *)
  let rec structure expected = function
    | [] ->
        if expected = n then Ok ()
        else begin
          match certificate_verdict cert with
          | Equilibrium | Degraded _ ->
              (* both claims quantify over every player — equilibrium
                 outright, degraded as "no improvement found and these
                 are the players still open" — so partial coverage
                 invalidates either *)
              fail "full coverage claimed but only players 0..%d have evidence"
                (expected - 1)
          | Refuted _ -> Ok ()
        end
    | (player, (a : Best_response.audit)) :: rest ->
        if player <> expected then
          fail "evidence out of order: expected player %d, found %d" expected
            player
        else if a.Best_response.improving <> None && rest <> [] then
          fail "player %d: refutation evidence must close the certificate" player
        else structure (expected + 1) rest
  in
  let* () = structure 0 cert.cert_evidence in
  List.fold_left
    (fun acc e ->
      let* () = acc in
      check_evidence e)
    (Ok ()) cert.cert_evidence

let pp_verdict ppf = function
  | Equilibrium -> Format.fprintf ppf "equilibrium"
  | Refuted r ->
      Format.fprintf ppf
        "refuted: player %d improves %d -> %d by playing {%a}" r.player
        r.current_cost r.better.Best_response.cost
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        r.better.Best_response.targets
  | Degraded unresolved ->
      Format.fprintf ppf
        "degraded: no improvement found, but the scan for player%s %a was \
         cut short by the deadline/work budget"
        (match unresolved with [ _ ] -> "" | _ -> "s")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           Format.pp_print_int)
        unresolved

(* The one walk of the profile space: profile index [lo, hi) in
   mixed-radix order (player 0 is the most significant digit, each
   digit a combination rank, so the order is lexicographic).  A census
   shard is exactly such a pair, so restarting one needs no state
   beyond it; every exhaustive consumer (the whole-space walk below,
   the grouped verdict walk behind the Nash filter, Poa's exact prices
   and the census) goes through it.  [f] also gets the last player's
   digit: the odometer's fastest digit, so the walk's profiles come in
   runs (groups) that share every other strategy, and a run starts
   wherever that digit is 0 or the range starts. *)
let walk budgets ~lo ~hi f =
  let n = Budget.n budgets in
  let radices =
    Array.init n (fun i ->
        match Combinatorics.binomial (n - 1) (Budget.get budgets i) with
        | Combinatorics.Exact c -> c
        | Combinatorics.Saturated ->
            invalid_arg "Equilibrium.iter_profiles_range: saturated space")
  in
  let total =
    Array.fold_left
      (fun acc r ->
        if r = 0 || acc = 0 then 0
        else if acc > max_int / r then
          invalid_arg "Equilibrium.iter_profiles_range: saturated space"
        else acc * r)
      1 radices
  in
  if lo < 0 || hi > total || lo > hi then
    invalid_arg "Equilibrium.iter_profiles_range: bad range";
  if lo < hi then begin
    let digits = Array.make n 0 in
    let rem = ref lo in
    for i = n - 1 downto 0 do
      digits.(i) <- !rem mod radices.(i);
      rem := !rem / radices.(i)
    done;
    let combos =
      Array.init n (fun i ->
          Combinatorics.unrank_combination ~n:(n - 1)
            ~k:(Budget.get budgets i) digits.(i))
    in
    let unshift player c =
      Array.map (fun i -> if i < player then i else i + 1) c
    in
    let strategies = Array.init n (fun i -> unshift i combos.(i)) in
    let last = ref digits.(n - 1) in
    (* a strategy array is replaced, never mutated, when its digit
       moves, so consecutive profiles share the arrays of the digits
       that stayed *)
    let emit () = f !last (Strategy.of_sorted budgets (Array.copy strategies)) in
    (* odometer step: advance the least significant digit that has a
       successor, reset the suffix to first combinations *)
    let rec advance i =
      if i < 0 then false
      else if Combinatorics.next_combination ~n:(n - 1) combos.(i) then begin
        strategies.(i) <- unshift i combos.(i);
        true
      end
      else begin
        let c = combos.(i) in
        Array.iteri (fun j _ -> c.(j) <- j) c;
        strategies.(i) <- unshift i c;
        advance (i - 1)
      end
    in
    emit ();
    for _ = lo + 1 to hi - 1 do
      if not (advance (n - 1)) then
        (* hi <= total: the odometer cannot run out inside the range *)
        assert false;
      last := (!last + 1) mod radices.(n - 1);
      emit ()
    done
  end

let iter_profiles_range budgets ~lo ~hi f =
  walk budgets ~lo ~hi (fun _ profile -> f profile)

let count_profiles budgets =
  let n = Budget.n budgets in
  let acc = ref 1 in
  for i = 0 to n - 1 do
    let c = Combinatorics.binomial_sat (n - 1) (Budget.get budgets i) in
    acc := if !acc > 0 && c > max_int / !acc then max_int else !acc * c
  done;
  !acc

let iter_profiles budgets f =
  iter_profiles_range budgets ~lo:0 ~hi:(count_profiles budgets) f

let c_group_refuted = Bbng_obs.Counter.make "equilibrium.group_refuted"

(* The grouped Nash filter.  A group shares G∖(n-1), so one context for
   the last player prices all k = C(n-1, b_{n-1}) of its strategies at
   the group's first profile (or the range's: the context does not
   depend on the last player's own strategy, so a range that cuts a
   group prices it the same way).  A profile whose last player costs
   more than the group minimum is refuted by that alone; at the minimum
   the last player has no improving move, so the profile is an
   equilibrium iff players 0..n-2 have none either, audited in order as
   [certify] does.  At k = 1 the last player has no alternative and
   nothing is priced. *)
let iter_verdicts_range game ~lo ~hi f =
  let budgets = Game.budgets game in
  let n = Game.n game in
  let last = n - 1 in
  let b = Budget.get budgets last in
  let k = Combinatorics.binomial_sat last b in
  (* allocated at the first group: the walk rejects a saturated space
     before calling back *)
  let costs = ref [||] and group_min = ref 0 in
  walk budgets ~lo ~hi (fun digit profile ->
      if k > 1 && (digit = 0 || Array.length !costs = 0) then begin
        if Array.length !costs = 0 then costs := Array.make k 0;
        let ctx =
          Deviation_eval.make (Game.version game) profile ~player:last
        in
        let i = ref 0 in
        group_min := max_int;
        (* the last player's strategies are the b-subsets of
           {0..n-2}, in its digit's (lexicographic) order *)
        Combinatorics.iter_combinations ~n:last ~k:b (fun targets ->
            let c = Deviation_eval.cost ctx targets in
            !costs.(!i) <- c;
            if c < !group_min then group_min := c;
            incr i)
      end;
      let nash =
        if k > 1 && !costs.(digit) > !group_min then begin
          Bbng_obs.Counter.bump c_group_refuted;
          false
        end
        else
          verdict_of_evidence
            (audit_in_order ~upto:last Best_response.audit_exact game profile)
          = Equilibrium
      in
      f profile nash)

exception Limit_reached

(* The Nash filter over the whole profile space, under one "enumerate"
   heartbeat task; [f] stops the walk early by raising
   [Limit_reached]. *)
let iter_equilibria game f =
  let total = count_profiles (Game.budgets game) in
  Bbng_obs.Progress.with_task ~total "enumerate" (fun progress ->
      try
        iter_verdicts_range game ~lo:0 ~hi:total (fun profile nash ->
            Bbng_obs.Progress.step progress;
            if nash then f profile)
      with Limit_reached -> ())

let enumerate_equilibria ?limit game =
  let found = ref [] and count = ref 0 in
  iter_equilibria game (fun profile ->
      found := profile :: !found;
      incr count;
      match limit with
      | Some l when !count >= l -> raise Limit_reached
      | Some _ | None -> ());
  List.rev !found

let equilibrium_diameter_range game =
  let range = ref None in
  iter_equilibria game (fun profile ->
      let d = Game.social_cost game profile in
      range :=
        match !range with
        | None -> Some (d, d)
        | Some (lo, hi) -> Some (min lo d, max hi d));
  !range
