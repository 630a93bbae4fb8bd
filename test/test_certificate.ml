(* Equilibrium certificates: production, (de)serialization, and the
   independent verifier — including its duty to reject corrupted
   evidence. *)

open Bbng_core
open Helpers
module Json = Bbng_obs.Json

let cert_json cert =
  Json.to_string (Bbng_obs.Certificate.to_json (Equilibrium.certificate_to_artifact cert))

(* provenance fields (ts, argv) differ between processes, so structural
   equality of certificates compares the body fields that matter *)
let same_cert a b =
  Equilibrium.mode_name a.Equilibrium.cert_mode
  = Equilibrium.mode_name b.Equilibrium.cert_mode
  && a.Equilibrium.cert_version = b.Equilibrium.cert_version
  && Strategy.equal a.Equilibrium.cert_profile b.Equilibrium.cert_profile
  && List.length a.Equilibrium.cert_evidence
     = List.length b.Equilibrium.cert_evidence
  && List.for_all2
       (fun (p1, (a1 : Best_response.audit)) (p2, (a2 : Best_response.audit)) ->
         p1 = p2 && a1.Best_response.tier = a2.Best_response.tier
         && a1.Best_response.engine = a2.Best_response.engine
         && a1.Best_response.scanned = a2.Best_response.scanned
         && a1.Best_response.candidates = a2.Best_response.candidates
         && a1.Best_response.current = a2.Best_response.current
         && a1.Best_response.best = a2.Best_response.best
         && a1.Best_response.improving = a2.Best_response.improving)
       a.Equilibrium.cert_evidence b.Equilibrium.cert_evidence

let sun8 = Bbng_constructions.Unit_budget.concentrated_sun ~n:8
let tripod2 = Bbng_constructions.Tripod.profile ~k:2
let path3 = Strategy.of_string "1,2;0;0" (* refuted under MAX *)

let cert_of version profile =
  Equilibrium.certify_cert (game version (Strategy.budgets profile)) profile

let test_verdict_agrees_with_certify () =
  List.iter
    (fun (version, p) ->
      let plain = certify version p in
      let cert = cert_of version p in
      let agree =
        match (plain, Equilibrium.certificate_verdict cert) with
        | Equilibrium.Equilibrium, Equilibrium.Equilibrium -> true
        | Equilibrium.Refuted r1, Equilibrium.Refuted r2 ->
            r1.Equilibrium.player = r2.Equilibrium.player
            && r1.Equilibrium.better = r2.Equilibrium.better
            && r1.Equilibrium.current_cost = r2.Equilibrium.current_cost
        | _ -> false
      in
      check_true "certify_cert verdict = certify verdict" agree)
    [ (Cost.Max, sun8); (Cost.Max, tripod2); (Cost.Max, path3);
      (Cost.Sum, sun8); (Cost.Sum, path3) ]

let test_artifact_round_trip () =
  List.iter
    (fun (version, p) ->
      let cert = cert_of version p in
      match
        Equilibrium.certificate_of_artifact
          (Equilibrium.certificate_to_artifact cert)
      with
      | Error msg -> Alcotest.failf "round trip: %s" msg
      | Ok cert' ->
          check_true "round trip preserves the certificate" (same_cert cert cert'))
    [ (Cost.Max, sun8); (Cost.Max, tripod2); (Cost.Max, path3) ]

let test_file_round_trip () =
  let path = Filename.temp_file "bbng_cert" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let cert = cert_of Cost.Max tripod2 in
      Equilibrium.write_certificate path cert;
      match Equilibrium.read_certificate path with
      | Error msg -> Alcotest.failf "read back: %s" msg
      | Ok cert' ->
          check_true "file round trip" (same_cert cert cert');
          check_true "single line"
            (let ic = open_in path in
             let lines = ref 0 in
             (try
                while true do
                  ignore (input_line ic);
                  incr lines
                done
              with End_of_file -> ());
             close_in ic;
             !lines = 1))

let test_truncated_file_rejected () =
  let path = Filename.temp_file "bbng_cert" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Equilibrium.write_certificate path (cert_of Cost.Max sun8);
      let text = In_channel.with_open_text path In_channel.input_all in
      let oc = open_out path in
      output_string oc (String.sub text 0 (String.length text / 2));
      close_out oc;
      match Equilibrium.read_certificate path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated certificate read back as Ok")

let test_wrong_kind_rejected () =
  let art = Bbng_obs.Certificate.make ~kind:"bbng.some-other-artifact" [] in
  match Equilibrium.certificate_of_artifact art with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign artifact accepted as a certificate"

let test_parallel_equals_sequential () =
  (* the sequential certificate leaves this domain's U(G) memo holding
     the profile's graph; the workers of a parallel certification of
     the same profile value build their own, and leave that one be *)
  List.iter
    (fun (version, p) ->
      let seq = cert_of version p in
      let u = Strategy.underlying p in
      List.iter
        (fun domains ->
          let par =
            Equilibrium.certify_parallel_cert ~domains
              (game version (Strategy.budgets p))
              p
          in
          check_true "parallel certificate = sequential certificate"
            (same_cert seq par);
          check_true "this domain's graph kept" (Strategy.underlying p == u))
        [ 2; 4 ])
    [ (Cost.Max, sun8); (Cost.Max, tripod2); (Cost.Max, path3);
      (Cost.Sum, path3) ]

let test_verify_accepts_honest_certs () =
  List.iter
    (fun cert ->
      match Equilibrium.verify_certificate cert with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "honest certificate rejected: %s" msg)
    [
      cert_of Cost.Max sun8;
      cert_of Cost.Max tripod2;
      cert_of Cost.Max path3;
      Equilibrium.certify_swap_cert (game Cost.Max (Strategy.budgets sun8)) sun8;
      Equilibrium.certify_swap_cert
        (game Cost.Sum (Strategy.budgets tripod2))
        tripod2;
    ]

let test_cross_engine_round_trip () =
  (* a certificate records the engine each player's budget selected
     (rows at b >= 2, overlay BFS below), survives the artifact round
     trip, and passes the verifier — which re-prices every recorded
     move through the *other* engine.  The three profiles hold b = 0, 1
     and 2 players, so both verifier directions run. *)
  let seen = ref [] in
  List.iter
    (fun (version, p) ->
      let cert =
        Equilibrium.certify_cert (game version (Strategy.budgets p)) p
      in
      List.iter
        (fun (player, a) ->
          let expected =
            if Budget.get (Strategy.budgets p) player >= 2 then
              Deviation_eval.Rows
            else Deviation_eval.Bfs_overlay
          in
          check_true "engine recorded" (a.Best_response.engine = expected);
          seen := expected :: !seen)
        cert.Equilibrium.cert_evidence;
      (match
         Equilibrium.certificate_of_artifact
           (Equilibrium.certificate_to_artifact cert)
       with
      | Ok cert' ->
          check_true "round trip keeps engine and candidates"
            (same_cert cert cert')
      | Error msg -> Alcotest.failf "round trip: %s" msg);
      match Equilibrium.verify_certificate cert with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "cert rejected: %s" msg)
    [ (Cost.Max, tripod2); (Cost.Sum, sun8); (Cost.Max, path3) ];
  List.iter
    (fun e ->
      check_true
        (Deviation_eval.engine_name e ^ " evidence exercised")
        (List.mem e !seen))
    [ Deviation_eval.Bfs_overlay; Deviation_eval.Rows ]

(* every recorded number is load-bearing: corrupting any of them must
   flip the verifier to Error *)
let mutate_evidence cert f =
  {
    cert with
    Equilibrium.cert_evidence =
      List.map (fun (p, a) -> (p, f (a : Best_response.audit))) cert.Equilibrium.cert_evidence;
  }

let expect_rejected what cert =
  match Equilibrium.verify_certificate cert with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "corrupted certificate accepted (%s)" what

let test_verify_rejects_corrupted_current () =
  let cert = cert_of Cost.Max tripod2 in
  expect_rejected "current+1"
    (mutate_evidence cert (fun a ->
         { a with Best_response.current = a.Best_response.current + 1 }))

let test_verify_rejects_corrupted_best () =
  let cert = cert_of Cost.Max tripod2 in
  (* tripod2 has exhaustively scanned players whose best move is
     recorded; under-reporting its cost must be caught by re-pricing *)
  expect_rejected "best cost - 1"
    (mutate_evidence cert (fun a ->
         match a.Best_response.best with
         | Some m ->
             {
               a with
               Best_response.best =
                 Some { m with Best_response.cost = m.Best_response.cost - 1 };
             }
         | None -> a))

let test_verify_rejects_corrupted_scan_count () =
  let cert = cert_of Cost.Max tripod2 in
  expect_rejected "scanned/2"
    (mutate_evidence cert (fun a ->
         if a.Best_response.scanned > 0 then
           { a with Best_response.scanned = a.Best_response.scanned / 2 }
         else a))

let test_verify_rejects_corrupted_candidates () =
  (* the recorded candidate-space size is checked against an
     independent re-count on every tier *)
  let cert = cert_of Cost.Max tripod2 in
  expect_rejected "candidates + 1"
    (mutate_evidence cert (fun a ->
         {
           a with
           Best_response.candidates =
             (match a.Best_response.candidates with
             | Bbng_graph.Combinatorics.Exact c ->
                 Bbng_graph.Combinatorics.Exact (c + 1)
             | Bbng_graph.Combinatorics.Saturated ->
                 Bbng_graph.Combinatorics.Exact 1);
         }));
  expect_rejected "candidates saturated"
    (mutate_evidence cert (fun a ->
         { a with Best_response.candidates = Bbng_graph.Combinatorics.Saturated }))

let test_verify_rejects_corrupted_refutation () =
  let cert = cert_of Cost.Max path3 in
  expect_rejected "improving cost + 1"
    (mutate_evidence cert (fun a ->
         match a.Best_response.improving with
         | Some m ->
             {
               a with
               Best_response.improving =
                 Some { m with Best_response.cost = m.Best_response.cost + 1 };
             }
         | None -> a))

let test_swap_cert_agrees_with_certify_swap () =
  List.iter
    (fun (version, p) ->
      let g = game version (Strategy.budgets p) in
      let plain_stable = Equilibrium.is_swap_stable g p in
      let cert = Equilibrium.certify_swap_cert g p in
      let cert_stable =
        match Equilibrium.certificate_verdict cert with
        | Equilibrium.Equilibrium -> true
        | Equilibrium.Refuted _ -> false
        | Equilibrium.Degraded _ ->
            Alcotest.fail "unbudgeted certification cannot degrade"
      in
      check_bool "swap cert verdict" plain_stable cert_stable)
    [ (Cost.Max, sun8); (Cost.Max, path3); (Cost.Sum, tripod2) ]

let test_evidence_structure () =
  (* equilibrium: every player has evidence, in order, none improving *)
  let cert = cert_of Cost.Max tripod2 in
  check_int "evidence per player" (Strategy.n tripod2)
    (List.length cert.Equilibrium.cert_evidence);
  List.iteri
    (fun i (p, a) ->
      check_int "players in order" i p;
      check_true "no improvement at equilibrium"
        (a.Best_response.improving = None))
    cert.Equilibrium.cert_evidence;
  (* refutation: evidence stops at the refuted player *)
  let cert = cert_of Cost.Max path3 in
  match List.rev cert.Equilibrium.cert_evidence with
  | (p, last) :: _ ->
      check_true "last evidence is the refutation"
        (last.Best_response.improving <> None);
      check_int "path3 refuted at player 1" 1 p
  | [] -> Alcotest.fail "refuted certificate with empty evidence"

let prop_random_certs_verify =
  qcheck ~count:40 "random certificates verify independently"
    (random_budget_gen ~n_min:2 ~n_max:6) (fun input ->
      let p = random_profile_of input in
      let g = game Cost.Sum (Strategy.budgets p) in
      let cert = Equilibrium.certify_cert g p in
      (match Equilibrium.verify_certificate cert with
      | Ok () -> ()
      | Error msg -> QCheck.Test.fail_reportf "verify: %s" msg);
      (match
         Equilibrium.certificate_of_artifact
           (Equilibrium.certificate_to_artifact cert)
       with
      | Ok cert' when same_cert cert cert' -> ()
      | Ok _ -> QCheck.Test.fail_report "round trip changed the certificate"
      | Error msg -> QCheck.Test.fail_reportf "round trip: %s" msg);
      ignore (cert_json cert);
      true)

(* Today's certifier must reproduce the evidence of every checked-in
   certificate under golden/.  Those files predate the [engine] and
   [candidates] fields and record their writer's argv, so they are
   compared field by field — every per-player field they do record —
   rather than byte for byte. *)
let test_golden_evidence_reproduced () =
  let files =
    Sys.readdir "golden" |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"CERT_" f && Filename.check_suffix f ".json")
    |> List.sort compare
  in
  check_true "golden certificates found" (files <> []);
  List.iter
    (fun file ->
      match Equilibrium.read_certificate (Filename.concat "golden" file) with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok golden ->
          let p = golden.Equilibrium.cert_profile in
          let g = game golden.Equilibrium.cert_version (Strategy.budgets p) in
          let fresh =
            match golden.Equilibrium.cert_mode with
            | Equilibrium.Exact_mode -> Equilibrium.certify_cert g p
            | Equilibrium.Swap_mode -> Equilibrium.certify_swap_cert g p
          in
          check_int (file ^ ": players") (List.length golden.Equilibrium.cert_evidence)
            (List.length fresh.Equilibrium.cert_evidence);
          List.iter2
            (fun (p1, (a1 : Best_response.audit)) (p2, (a2 : Best_response.audit)) ->
              let label what = Printf.sprintf "%s player %d: %s" file p1 what in
              check_int (label "player") p1 p2;
              Alcotest.(check string) (label "tier")
                (Best_response.tier_name a1.Best_response.tier)
                (Best_response.tier_name a2.Best_response.tier);
              check_int (label "scanned") a1.Best_response.scanned a2.Best_response.scanned;
              check_int (label "current_cost") a1.Best_response.current
                a2.Best_response.current;
              check_true (label "best") (a1.Best_response.best = a2.Best_response.best);
              check_true (label "improving")
                (a1.Best_response.improving = a2.Best_response.improving))
            golden.Equilibrium.cert_evidence fresh.Equilibrium.cert_evidence)
    files

let suite =
  [
    case "verdict agrees with certify" test_verdict_agrees_with_certify;
    case "artifact round trip" test_artifact_round_trip;
    case "file round trip" test_file_round_trip;
    case "truncated file rejected" test_truncated_file_rejected;
    case "wrong kind rejected" test_wrong_kind_rejected;
    case "parallel = sequential" test_parallel_equals_sequential;
    case "verify accepts honest certificates" test_verify_accepts_honest_certs;
    case "cross-engine round trip" test_cross_engine_round_trip;
    case "verify rejects corrupted current" test_verify_rejects_corrupted_current;
    case "verify rejects corrupted candidates" test_verify_rejects_corrupted_candidates;
    case "verify rejects corrupted best" test_verify_rejects_corrupted_best;
    case "verify rejects corrupted scan count" test_verify_rejects_corrupted_scan_count;
    case "verify rejects corrupted refutation" test_verify_rejects_corrupted_refutation;
    case "swap certificates" test_swap_cert_agrees_with_certify_swap;
    case "evidence structure" test_evidence_structure;
    case "golden evidence reproduced" test_golden_evidence_reproduced;
    prop_random_certs_verify;
  ]
