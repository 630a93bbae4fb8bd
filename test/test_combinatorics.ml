open Helpers
module C = Bbng_graph.Combinatorics

let collect ~n ~k =
  let acc = ref [] in
  C.iter_combinations ~n ~k (fun c -> acc := Array.to_list c :: !acc);
  List.rev !acc

let count = Alcotest.testable
    (Fmt.of_to_string C.count_to_string)
    (fun a b -> a = b)

let check_count msg expected got = Alcotest.check count msg expected got

let test_binomial () =
  check_count "5 choose 2" (C.Exact 10) (C.binomial 5 2);
  check_count "n choose 0" (C.Exact 1) (C.binomial 7 0);
  check_count "n choose n" (C.Exact 1) (C.binomial 7 7);
  check_count "k > n" (C.Exact 0) (C.binomial 3 5);
  check_count "k < 0" (C.Exact 0) (C.binomial 3 (-1));
  check_count "symmetry" (C.binomial 20 6) (C.binomial 20 14);
  check_count "big exact" (C.Exact 184756) (C.binomial 20 10)

let test_binomial_saturates () =
  (* the boundary on 63-bit ints: C(64,32) ~ 1.8e18 still fits,
     C(66,33) ~ 7.2e18 does not — the overflow is an explicit marker,
     never a clamped number *)
  check_count "C(64,32) exact" (C.Exact 1832624140942590534) (C.binomial 64 32);
  check_count "C(66,33) saturates" C.Saturated (C.binomial 66 33);
  check_count "way past the boundary" C.Saturated (C.binomial 200 100);
  check_int "binomial_sat clamps for estimates" max_int (C.binomial_sat 200 100);
  check_int "binomial_sat exact when exact" 10 (C.binomial_sat 5 2)

let test_iter_enumerates_all () =
  let subsets = collect ~n:4 ~k:2 in
  check_int "count" 6 (List.length subsets);
  check_true "lexicographic"
    (subsets = [ [0;1]; [0;2]; [0;3]; [1;2]; [1;3]; [2;3] ])

let test_iter_k0 () =
  check_true "single empty subset" (collect ~n:5 ~k:0 = [ [] ]);
  check_true "k=0,n=0" (collect ~n:0 ~k:0 = [ [] ])

let test_iter_k_gt_n () =
  check_true "no subsets" (collect ~n:3 ~k:4 = [])

let test_iter_full () =
  check_true "k=n single subset" (collect ~n:3 ~k:3 = [ [0;1;2] ])

let test_fold_best () =
  (* minimize the sum of the chosen indices: {0,1} wins *)
  match C.fold_best ~n:5 ~k:2 ~score:(fun c -> c.(0) + c.(1)) () with
  | Some (c, s) ->
      check_int_array "best subset" [| 0; 1 |] c;
      check_int "best score" 1 s
  | None -> Alcotest.fail "expected a best subset"

let test_fold_best_stop_at () =
  (* early exit: with stop_at = 10 the very first subset qualifies *)
  let evaluated = ref 0 in
  (match
     C.fold_best ~n:6 ~k:3
       ~score:(fun _ -> incr evaluated; 5)
       ~stop_at:10 ()
   with
  | Some (_, 5) -> ()
  | _ -> Alcotest.fail "expected score 5");
  check_int "only one evaluation" 1 !evaluated

let test_fold_best_none () =
  check_true "no subsets" (C.fold_best ~n:2 ~k:3 ~score:(fun _ -> 0) () = None)

let prop_count_matches_binomial =
  qcheck "iteration count = binomial"
    (QCheck.make
       ~print:(fun (n, k) -> Printf.sprintf "n=%d k=%d" n k)
       QCheck.Gen.(pair (int_range 0 10) (int_range 0 10)))
    (fun (n, k) -> C.Exact (List.length (collect ~n ~k)) = C.binomial n k)

let prop_subsets_sorted_distinct =
  qcheck "every subset is sorted and duplicate-free"
    (QCheck.make
       ~print:(fun (n, k) -> Printf.sprintf "n=%d k=%d" n k)
       QCheck.Gen.(pair (int_range 1 9) (int_range 1 9)))
    (fun (n, k) ->
      List.for_all
        (fun c ->
          let rec ok = function
            | a :: (b :: _ as rest) -> a < b && ok rest
            | _ -> true
          in
          ok c && List.for_all (fun x -> x >= 0 && x < n) c)
        (collect ~n ~k))

(* --- rank / unrank / successor: the census-shard substrate --- *)

let test_unrank_endpoints_and_guards () =
  check_int_array "rank 0" [| 0; 1; 2 |] (C.unrank_combination ~n:5 ~k:3 0);
  check_int_array "last rank" [| 2; 3; 4 |] (C.unrank_combination ~n:5 ~k:3 9);
  check_int_array "k = 0" [||] (C.unrank_combination ~n:5 ~k:0 0);
  check_true "rank past the space rejected"
    (match C.unrank_combination ~n:5 ~k:3 10 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_true "negative rank rejected"
    (match C.unrank_combination ~n:5 ~k:3 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_true "saturated space rejected"
    (match C.unrank_combination ~n:200 ~k:100 0 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_unrank_matches_iteration_order () =
  let all = Array.of_list (collect ~n:6 ~k:3) in
  Array.iteri
    (fun r expect ->
      let c = C.unrank_combination ~n:6 ~k:3 r in
      check_int_list (Printf.sprintf "unrank %d" r) expect (Array.to_list c);
      check_int (Printf.sprintf "rank back %d" r) r (C.rank_combination ~n:6 c))
    all

let test_next_combination_chain () =
  (* start anywhere, step to the end: exactly the enumeration's tail *)
  let all = collect ~n:6 ~k:3 in
  let c = C.unrank_combination ~n:6 ~k:3 0 in
  let seen = ref [ Array.to_list c ] in
  while C.next_combination ~n:6 c do
    seen := Array.to_list c :: !seen
  done;
  check_true "successor chain = lexicographic order" (List.rev !seen = all);
  check_int_list "last subset untouched by the failing step" [ 3; 4; 5 ]
    (Array.to_list c)

let prop_rank_unrank_roundtrip =
  qcheck "rank . unrank = id on every rank"
    (QCheck.make
       ~print:(fun (n, k, r) -> Printf.sprintf "n=%d k=%d r=%d" n k r)
       QCheck.Gen.(
         int_range 1 10 >>= fun n ->
         int_range 0 n >>= fun k ->
         let total =
           match C.binomial n k with C.Exact e -> e | C.Saturated -> 1
         in
         int_range 0 (total - 1) >>= fun r -> return (n, k, r)))
    (fun (n, k, r) ->
      C.rank_combination ~n (C.unrank_combination ~n ~k r) = r)

let suite =
  [
    case "binomial" test_binomial;
    case "binomial saturates" test_binomial_saturates;
    case "iterate all subsets" test_iter_enumerates_all;
    case "k = 0" test_iter_k0;
    case "k > n" test_iter_k_gt_n;
    case "k = n" test_iter_full;
    case "fold_best" test_fold_best;
    case "fold_best early exit" test_fold_best_stop_at;
    case "fold_best empty" test_fold_best_none;
    prop_count_matches_binomial;
    prop_subsets_sorted_distinct;
    case "unrank endpoints and guards" test_unrank_endpoints_and_guards;
    case "unrank matches iteration order" test_unrank_matches_iteration_order;
    case "successor chain" test_next_combination_chain;
    prop_rank_unrank_roundtrip;
  ]
