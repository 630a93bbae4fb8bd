(* CSR-vs-legacy answer check over a recorded census artifact.

   Reads a CENSUS_*.jsonl golden, re-realizes every equilibrium class
   representative it names, and compares the kernel answers
   (direction-optimizing [Bfs.distances], iFUB [Distances.diameter])
   against the oracle top-down walker on each graph.  This is the
   out-of-process twin of the kernel-vs-legacy qchecks: random
   graphs exercise the engine broadly, but the goldens pin it on the
   exact graphs the paper's census artifacts were computed from —
   bin/check.sh runs this stage so a kernel regression cannot ship
   behind passing unit tests.  Exits non-zero on the first artifact
   whose answers diverge. *)

open Bbng_core
module Json = Bbng_obs.Json

let reps_of_file file =
  let ic =
    try open_in file
    with Sys_error e ->
      Printf.eprintf "csr-oracle: %s\n" e;
      exit 1
  in
  let reps = ref [] in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then
         match Json.of_string line with
         | exception Json.Parse_error e ->
             close_in_noerr ic;
             Printf.eprintf "csr-oracle: %s: parse error: %s\n" file e;
             exit 1
         | json -> (
             match (Json.member "row" json, Json.member "classes" json) with
             | Some (Json.Str "shard"), Some (Json.List classes) ->
                 List.iter
                   (fun cj ->
                     match Json.member "rep" cj with
                     | Some (Json.Str rep) -> reps := rep :: !reps
                     | _ -> ())
                   classes
             | _ -> ())
     done
   with End_of_file -> close_in_noerr ic);
  List.rev !reps

let check_graph ~what g =
  let n = Bbng_graph.Undirected.n g in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "csr-oracle: MISMATCH on %s: %s\n" what msg;
        exit 1)
      fmt
  in
  for u = 0 to n - 1 do
    let csr_row = Bbng_graph.Bfs.distances g u in
    let legacy_row = Bbng_oracle.Bfs.legacy_distances g u in
    if csr_row <> legacy_row then bad "BFS rows from %d differ" u
  done;
  let ifub = Bbng_graph.Distances.diameter g in
  let legacy =
    Bbng_graph.Distances.fold_eccentricities g (fun a _ e -> max a e) 0
  in
  if ifub <> legacy then
    bad "diameter: ifub=%s legacy=%s"
      (match ifub with Some d -> string_of_int d | None -> "None")
      (match legacy with Some d -> string_of_int d | None -> "None")

let run file =
  let reps = reps_of_file file in
  if reps = [] then begin
    Printf.eprintf "csr-oracle: %s: no class representatives found\n" file;
    exit 1
  end;
  (* artifacts repeat representatives across shards; each graph only
     needs checking once *)
  let seen = Hashtbl.create 64 in
  let checked = ref 0 in
  List.iter
    (fun rep ->
      if not (Hashtbl.mem seen rep) then begin
        Hashtbl.add seen rep ();
        let s =
          try Strategy.of_string rep
          with Invalid_argument e ->
            Printf.eprintf "csr-oracle: %s: bad rep %S: %s\n" file rep e;
            exit 1
        in
        check_graph ~what:(Printf.sprintf "%s rep %S" file rep)
          (Strategy.underlying s);
        incr checked
      end)
    reps;
  Printf.printf "%s: ok (%d equilibrium graphs, CSR == legacy)\n" file !checked
