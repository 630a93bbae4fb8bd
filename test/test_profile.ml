(* Call-path attribution (Bbng_obs.Profile), the one span store, and
   its per-name view (Bbng_obs.Span.snapshot).

   The load-bearing properties: folded per-name totals equal the
   per-name Span totals exactly (integer telescoping, not
   approximation); out-of-order and double closes never corrupt a
   domain's path stack; offline reconstruction from recorded span
   events matches the live profile; multi-domain span totals equal
   single-domain totals on the sharded table; the per-name rollup
   agrees with a fold of the recorded span events; and torn .partial
   recordings still flame. *)

open Helpers
open Bbng_core
module Span = Bbng_obs.Span
module Profile = Bbng_obs.Profile
module Sink = Bbng_obs.Sink
module Json = Bbng_obs.Json
module Histogram = Bbng_obs.Histogram
module Trace_export = Bbng_obs.Trace_export
module Stats = Bbng_obs.Stats

(* Every test drives the process-global span/profile state: snapshot
   the enabled flags, start from empty tables, and restore on the way
   out so the rest of the suite is unaffected. *)
let scoped f =
  let span_was = Span.enabled () and prof_was = Profile.enabled () in
  Span.set_enabled true;
  Profile.set_enabled true;
  Span.reset_all ();
  Profile.reset_all ();
  Fun.protect
    ~finally:(fun () ->
      Span.reset_all ();
      Profile.reset_all ();
      Span.set_enabled span_was;
      Profile.set_enabled prof_was)
    f

(* busy-wait long enough that consecutive span starts land on distinct
   microsecond ticks — what the offline start/duration containment
   reconstruction needs to tell siblings from children *)
let tick () =
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 50e-6 do
    ignore (Sys.opaque_identity (Array.make 16 0))
  done

(* --- exact folded == flat equality --- *)

let span_totals () = Span.snapshot ()

let check_name_totals_match_flat ~eps_minor () =
  let flat = span_totals () in
  let rolled = Profile.name_totals (Profile.snapshot ()) in
  check_int "one rollup entry per span family" (List.length flat)
    (List.length rolled);
  List.iter
    (fun (name, (s : Span.stat)) ->
      match List.assoc_opt name rolled with
      | None -> Alcotest.failf "span %S missing from the path rollup" name
      | Some (p : Profile.stat) ->
          check_int (name ^ ": counts agree") s.Span.count p.Profile.count;
          check_int (name ^ ": self-ns telescopes to the flat total")
            s.Span.total_ns p.Profile.self_ns;
          if
            Float.abs (s.Span.minor_words -. p.Profile.self_minor_words)
            > eps_minor *. (1. +. Float.abs s.Span.minor_words)
          then
            Alcotest.failf "%s: minor words diverge: flat %f vs rolled %f" name
              s.Span.minor_words p.Profile.self_minor_words)
    flat

let test_nested_attribution () =
  scoped (fun () ->
      Span.with_ "pa" (fun () ->
          tick ();
          Span.with_ "pb" (fun () -> tick ());
          Span.with_ "pb" (fun () ->
              tick ();
              Span.with_ "pc" (fun () -> tick ())));
      Span.with_ "pc" (fun () -> tick ());
      let snap = Profile.snapshot () in
      let paths = List.map fst snap in
      List.iter
        (fun expected ->
          check_true ("path recorded: " ^ expected)
            (List.mem expected paths))
        [ "pa"; "pa;pb"; "pa;pb;pc"; "pc" ];
      check_int "no other paths" 4 (List.length snap);
      let stat path = List.assoc path snap in
      check_int "pb closed twice at its path" 2 (stat "pa;pb").Profile.count;
      check_name_totals_match_flat ~eps_minor:1e-9 ())

(* random well-nested trees, with recursion in the name alphabet so the
   per-name rollup's multiplicity weighting is exercised (a path like
   ta;tb;ta counts its self values once per occurrence of ta) *)
type tree = T of string * tree list

let tree_gen =
  let open QCheck.Gen in
  let name = map (fun i -> [| "ta"; "tb"; "tc" |].(i)) (int_range 0 2) in
  sized_size (int_range 1 12)
  @@ fix (fun self n ->
         if n <= 1 then map (fun nm -> T (nm, [])) name
         else
           map2 (fun nm kids -> T (nm, kids)) name
             (list_size (int_range 0 3) (self (n / 4))))

let rec run_tree (T (name, kids)) =
  Span.with_ name (fun () ->
      ignore (Sys.opaque_identity (Array.make 32 0));
      List.iter run_tree kids)

let test_random_trees_exact =
  qcheck ~count:60 "folded per-name totals == flat Span totals"
    (QCheck.make tree_gen)
    (fun tree ->
      scoped (fun () ->
          run_tree tree;
          check_name_totals_match_flat ~eps_minor:1e-6 ();
          true))

(* --- out-of-order / double-close robustness --- *)

(* Random interleavings straight on the Span API: enter a few spans,
   close them (and re-close some) in arbitrary order.  Nothing may
   raise, the stack must drain to depth 0 once every handle is closed,
   and a subsequent span must open at a clean depth-0 path. *)
let test_out_of_order =
  qcheck ~count:100 "random close orders never corrupt the stack"
    QCheck.(pair (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, seed) ->
      scoped (fun () ->
          let st = Random.State.make [| 0xF01D; seed |] in
          let handles =
            Array.init n (fun i -> Span.enter (Printf.sprintf "oo%d" i))
          in
          (* close in a random permutation, with some double closes *)
          let order = Array.init n (fun i -> i) in
          for i = n - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let t = order.(i) in
            order.(i) <- order.(j);
            order.(j) <- t
          done;
          Array.iter
            (fun i ->
              Span.exit handles.(i);
              if Random.State.bool st then Span.exit handles.(i))
            order;
          check_int "stack drained" 0 (Profile.stack_depth ());
          Span.with_ "oo_fresh" (fun () -> ());
          let snap = Profile.snapshot () in
          check_true "fresh span gets a clean depth-0 path"
            (List.mem_assoc "oo_fresh" snap);
          (* every span recorded exactly once despite double closes *)
          let flat = span_totals () in
          List.for_all
            (fun (_, (s : Span.stat)) -> s.Span.count = 1)
            flat))

let test_double_close_records_once () =
  scoped (fun () ->
      let h = Span.enter "dc" in
      Span.exit h;
      Span.exit h;
      Span.exit h;
      check_int "one close, one count" 1
        (List.assoc "dc" (span_totals ())).Span.count;
      check_int "one profile record" 1
        (List.assoc "dc" (Profile.snapshot ())).Profile.count)

(* --- offline reconstruction (bbng_cli flame) --- *)

let record_to_events f =
  let file = Filename.temp_file "bbng_profile" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> Sink.scoped (Sink.Jsonl oc) f);
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Trace_export.read_events ic))

let test_offline_matches_live () =
  scoped (fun () ->
      let events, skipped =
        record_to_events (fun () ->
            Span.with_ "fa" (fun () ->
                tick ();
                Span.with_ "fb" (fun () -> tick ());
                Span.with_ "fb" (fun () -> tick ()));
            Span.with_ "fc" (fun () -> tick ()))
      in
      check_int "clean recording" 0 skipped;
      let live = Profile.snapshot () in
      let offline = Profile.of_events events in
      check_int "same path set" (List.length live) (List.length offline);
      List.iter
        (fun (path, (l : Profile.stat)) ->
          match List.assoc_opt path offline with
          | None -> Alcotest.failf "path %S lost offline" path
          | Some (o : Profile.stat) ->
              check_int (path ^ ": count") l.Profile.count o.Profile.count;
              check_int (path ^ ": self-ns round-trips exactly")
                l.Profile.self_ns o.Profile.self_ns;
              if
                Float.abs (l.Profile.self_minor_words -. o.Profile.self_minor_words)
                > 1e-6 *. (1. +. Float.abs l.Profile.self_minor_words)
              then Alcotest.failf "%s: minor words diverge offline" path)
        live;
      (* and the folded renderings agree line for line *)
      Alcotest.(check (list string))
        "folded lines identical"
        (Profile.folded_lines Profile.Wall_ns live)
        (Profile.folded_lines Profile.Wall_ns offline))

let test_torn_partial_skips () =
  scoped (fun () ->
      let events, _ =
        record_to_events (fun () ->
            Span.with_ "torn_a" (fun () ->
                tick ();
                Span.with_ "torn_b" (fun () -> tick ())))
      in
      (* re-serialize, then truncate the last line mid-byte the way a
         SIGKILL mid-write would *)
      let file = Filename.temp_file "bbng_torn" ".jsonl.partial" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          let oc = open_out file in
          List.iter
            (fun j ->
              output_string oc (Json.to_string j);
              output_char oc '\n')
            events;
          output_string oc "{\"event\":\"span\",\"name\":\"torn_c\",\"du";
          close_out oc;
          let ic = open_in file in
          let read, skipped =
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () -> Trace_export.read_events ic)
          in
          check_int "torn line skipped" 1 skipped;
          let offline = Profile.of_events read in
          check_true "complete paths survive"
            (List.mem_assoc "torn_a" offline
            && List.mem_assoc "torn_a;torn_b" offline);
          check_false "torn span does not appear"
            (List.exists
               (fun (p, _) ->
                 String.length p >= 6 && String.sub p 0 6 = "torn_c")
               offline)))

(* --- sharding and parallel root propagation --- *)

let par_work ~domains n =
  Span.with_ "par_outer" (fun () ->
      ignore
        (Parallel.map ~domains ~n (fun i ->
             Span.with_ "par_inner" (fun () -> i * i))))

let test_multi_domain_totals =
  qcheck ~count:15 "multi-domain span totals == single-domain totals"
    QCheck.(int_range 8 200)
    (fun n ->
      let counts domains =
        scoped (fun () ->
            par_work ~domains n;
            ( List.map
                (fun (k, (s : Span.stat)) -> (k, s.Span.count))
                (span_totals ()),
              List.map
                (fun (k, (p : Profile.stat)) -> (k, p.Profile.count))
                (Profile.name_totals (Profile.snapshot ())) ))
      in
      let flat1, rolled1 = counts 1 in
      let flat4, rolled4 = counts 4 in
      flat1 = flat4 && rolled1 = rolled4
      && List.assoc "par_inner" flat1 = n)

let test_worker_paths_rooted () =
  scoped (fun () ->
      par_work ~domains:4 64;
      let snap = Profile.snapshot () in
      check_true "inner spans fold under the caller's path"
        (List.mem_assoc "par_outer;par_inner" snap);
      check_int "no orphaned inner path" 0
        (List.length (List.filter (fun (p, _) -> p = "par_inner") snap));
      check_int "every worker's closes attributed" 64
        (List.assoc "par_outer;par_inner" snap).Profile.count)

let test_concurrent_recording () =
  scoped (fun () ->
      let per_domain = 500 in
      ignore
        (Parallel.map ~domains:4 ~n:(4 * per_domain) (fun _ ->
             Span.with_ "conc" (fun () -> ())));
      check_int "sharded table lost nothing" (4 * per_domain)
        (List.assoc "conc" (span_totals ())).Span.count)

(* the merged-shard quantile path: aggregating a histogram's own bucket
   counts must reproduce its direct quantile estimates *)
let test_quantile_of_counts () =
  let h = Histogram.unregistered "q" in
  List.iter (Histogram.record h) [ 1; 2; 3; 10; 100; 1000; 5000 ];
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "q=%.2f" q)
        (Histogram.quantile h q)
        (Histogram.quantile_of_counts ~max_value:(Histogram.max_value h)
           (Histogram.bucket_counts h) q))
    [ 0.; 0.5; 0.9; 0.99; 1. ]

(* --- the per-name rollup against the event stream --- *)

(* per span name: (closes, sum of round(dur_us * 1e3), max) over the
   recorded "span" events *)
let fold_span_events events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun j ->
      match
        (Json.event_name j, Json.str_field "name" j, Json.num_field "dur_us" j)
      with
      | "span", Some name, Some dur_us ->
          let ns = int_of_float (Float.round (dur_us *. 1e3)) in
          let c, t, m =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl name)
          in
          Hashtbl.replace tbl name (c + 1, t + ns, max m ns)
      | _ -> ())
    events;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* well-nested trees on every worker domain, then a few handles closed
   out of order (some twice) on the calling domain *)
let record_mixed ~domains ~seed tree =
  ignore (Parallel.map ~domains ~n:4 (fun _ -> run_tree tree));
  check_name_totals_match_flat ~eps_minor:1e-6 ();
  let st = Random.State.make [| 0x5EED; seed |] in
  let handles =
    Array.init 4 (fun i -> Span.enter [| "ta"; "tb"; "tc" |].(i mod 3))
  in
  let order = Array.init 4 (fun i -> i) in
  for i = 3 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  Array.iter
    (fun i ->
      Span.exit handles.(i);
      if Random.State.bool st then Span.exit handles.(i))
    order

let test_rollup_matches_events =
  qcheck ~count:40 "per-name rollup == fold of span events"
    QCheck.(pair (make tree_gen) (int_range 0 1_000_000))
    (fun (tree, seed) ->
      List.for_all
        (fun domains ->
          scoped (fun () ->
              let events, skipped =
                record_to_events (fun () -> record_mixed ~domains ~seed tree)
              in
              check_int "clean recording" 0 skipped;
              check_int "stack drained" 0 (Profile.stack_depth ());
              let rolled =
                List.map
                  (fun (k, (s : Span.stat)) ->
                    (k, (s.Span.count, s.Span.total_ns, s.Span.max_ns)))
                  (Span.snapshot ())
              in
              fold_span_events events = rolled))
        [ 1; 4 ])

let test_summary_span_fields () =
  scoped (fun () ->
      Span.with_ "pin_outer" (fun () -> Span.with_ "pin_inner" (fun () -> ()));
      match List.assoc_opt "spans" (Stats.summary_fields ()) with
      | Some (Json.Obj spans) ->
          Alcotest.(check (list string))
            "span names" [ "pin_inner"; "pin_outer" ] (List.map fst spans);
          List.iter
            (fun (name, sp) ->
              match sp with
              | Json.Obj fields ->
                  Alcotest.(check (list string))
                    (name ^ ": field names")
                    [
                      "count"; "total_ms"; "max_ms"; "p50_ms"; "p90_ms";
                      "p99_ms"; "minor_words"; "major_words";
                    ]
                    (List.map fst fields)
              | _ -> Alcotest.failf "span %S is not an object" name)
            spans
      | _ -> Alcotest.fail "run.summary has no spans object")

let suite =
  [
    case "nested attribution records full paths" test_nested_attribution;
    test_random_trees_exact;
    test_out_of_order;
    case "double close records once" test_double_close_records_once;
    case "offline reconstruction matches live profile" test_offline_matches_live;
    case "torn .partial still flames" test_torn_partial_skips;
    test_multi_domain_totals;
    case "parallel workers root under caller path" test_worker_paths_rooted;
    case "concurrent recording is lossless" test_concurrent_recording;
    case "quantile_of_counts matches direct quantile" test_quantile_of_counts;
    test_rollup_matches_events;
    case "run.summary span fields are pinned" test_summary_span_fields;
  ]
