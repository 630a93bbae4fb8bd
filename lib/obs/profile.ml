(* Call-path profiling on top of Span: each domain keeps its stack of
   open spans, and closing a span attributes SELF time (wall minus the
   wall of its direct children) and SELF allocation (minor words minus
   the children's minor words) to the full call path "a;b;c".

   Attribution telescopes exactly: a parent accumulates each child's
   recorded integer wall/minor into [child_ns]/[child_minor], so the
   sum of self values over a well-nested subtree equals the root's
   recorded wall to the nanosecond.  That is what lets tests pin
   "folded per-name totals == flat Span totals" as an equality, not an
   approximation.

   The accumulation table is sharded per domain (same Domain.self
   pattern as Counter) so Parallel workers record without contending;
   the open-span stacks live in domain-local storage and never need a
   lock at all. *)

type stat = { count : int; self_ns : int; self_minor_words : float }

(* --- per-domain open-span stacks --- *)

type frame = {
  f_path : string;
  f_dom : int;
  mutable child_ns : int;
  mutable child_minor : float;
  (* cleared when the frame leaves its stack — a later (out-of-order or
     cross-domain) close then only records, never touches a stack *)
  mutable on_stack : bool;
}

type token = frame option

type dstate = {
  mutable stack : frame list;
  (* path prefix for frames opened at depth 0: Parallel workers set it
     to the spawning domain's current path, so a fan-out's spans stay
     attributed under the caller's call path *)
  mutable base : string;
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { stack = []; base = "" })

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* --- sharded path table --- *)

type cell = {
  mutable c_count : int;
  mutable c_self_ns : int;
  mutable c_self_minor : float;
}

let shards = 8
let shard_index () = (Domain.self () :> int) land (shards - 1)

type shard = { tbl : (string, cell) Hashtbl.t; mu : Mutex.t }

let table = Array.init shards (fun _ -> { tbl = Hashtbl.create 32; mu = Mutex.create () })

let record path ~self_ns ~self_minor =
  let sh = table.(shard_index ()) in
  Mutex.protect sh.mu (fun () ->
      let c =
        match Hashtbl.find_opt sh.tbl path with
        | Some c -> c
        | None ->
            let c = { c_count = 0; c_self_ns = 0; c_self_minor = 0. } in
            Hashtbl.add sh.tbl path c;
            c
      in
      c.c_count <- c.c_count + 1;
      c.c_self_ns <- c.c_self_ns + self_ns;
      c.c_self_minor <- c.c_self_minor +. self_minor)

(* --- enter / close (driven by Span) --- *)

let enter name =
  if not (Atomic.get enabled_flag) then None
  else begin
    let st = Domain.DLS.get dls in
    let parent =
      match st.stack with f :: _ -> f.f_path | [] -> st.base
    in
    let path = if parent = "" then name else parent ^ ";" ^ name in
    let f =
      {
        f_path = path;
        f_dom = (Domain.self () :> int);
        child_ns = 0;
        child_minor = 0.;
        on_stack = true;
      }
    in
    st.stack <- f :: st.stack;
    Some f
  end

let close tok ~wall_ns ~minor_words =
  match tok with
  | None -> ()
  | Some f ->
      record f.f_path ~self_ns:(wall_ns - f.child_ns)
        ~self_minor:(minor_words -. f.child_minor);
      if f.on_stack && f.f_dom = (Domain.self () :> int) then begin
        let st = Domain.DLS.get dls in
        if List.memq f st.stack then begin
          (* pop down to [f]; anything above it was opened later but is
             being closed out of order — detach those frames so their
             own close records to their (already fixed) path without
             touching the stack.  The stack itself stays consistent. *)
          let rec pop = function
            | g :: rest ->
                g.on_stack <- false;
                if g == f then rest else pop rest
            | [] -> []
          in
          st.stack <- pop st.stack;
          match st.stack with
          | p :: _ ->
              p.child_ns <- p.child_ns + wall_ns;
              p.child_minor <- p.child_minor +. minor_words
          | [] -> ()
        end
        else f.on_stack <- false
      end

let current_path () =
  let st = Domain.DLS.get dls in
  match st.stack with f :: _ -> f.f_path | [] -> st.base

let stack_depth () = List.length (Domain.DLS.get dls).stack

let with_root base f =
  let st = Domain.DLS.get dls in
  let saved_stack = st.stack and saved_base = st.base in
  st.stack <- [];
  st.base <- base;
  Fun.protect
    ~finally:(fun () ->
      (* frames the scope leaked stay attributable but leave the stack *)
      List.iter (fun g -> g.on_stack <- false) st.stack;
      st.stack <- saved_stack;
      st.base <- saved_base)
    f

(* --- snapshots and folded rendering --- *)

let snapshot () =
  let merged : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.iter
            (fun path c ->
              match Hashtbl.find_opt merged path with
              | Some m ->
                  m.c_count <- m.c_count + c.c_count;
                  m.c_self_ns <- m.c_self_ns + c.c_self_ns;
                  m.c_self_minor <- m.c_self_minor +. c.c_self_minor
              | None ->
                  Hashtbl.add merged path
                    {
                      c_count = c.c_count;
                      c_self_ns = c.c_self_ns;
                      c_self_minor = c.c_self_minor;
                    })
            sh.tbl))
    table;
  List.sort compare
    (Hashtbl.fold
       (fun path c acc ->
         ( path,
           {
             count = c.c_count;
             self_ns = c.c_self_ns;
             self_minor_words = c.c_self_minor;
           } )
         :: acc)
       merged [])

let reset_all () =
  Array.iter (fun sh -> Mutex.protect sh.mu (fun () -> Hashtbl.reset sh.tbl)) table

(* Per-name rollup of a path snapshot: a name's inclusive total is the
   sum of self values over every path it appears on, counted once per
   occurrence (so recursive spans — "a;b;a" — roll up exactly like the
   flat table, which records every close).  Count is closes, i.e. paths
   that END in the name. *)
let name_totals snap =
  let tbl : (string, cell) Hashtbl.t = Hashtbl.create 32 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None ->
        let c = { c_count = 0; c_self_ns = 0; c_self_minor = 0. } in
        Hashtbl.add tbl name c;
        c
  in
  List.iter
    (fun (path, (s : stat)) ->
      let segs = String.split_on_char ';' path in
      (match List.rev segs with
      | last :: _ -> (get last).c_count <- (get last).c_count + s.count
      | [] -> ());
      List.iter
        (fun name ->
          let c = get name in
          c.c_self_ns <- c.c_self_ns + s.self_ns;
          c.c_self_minor <- c.c_self_minor +. s.self_minor_words)
        segs)
    snap;
  List.sort compare
    (Hashtbl.fold
       (fun name c acc ->
         ( name,
           {
             count = c.c_count;
             self_ns = c.c_self_ns;
             self_minor_words = c.c_self_minor;
           } )
         :: acc)
       tbl [])

type flavor = Wall_ns | Minor_words

let folded_lines flavor snap =
  List.map
    (fun (path, (s : stat)) ->
      match flavor with
      | Wall_ns -> Printf.sprintf "%s %d" path s.self_ns
      | Minor_words -> Printf.sprintf "%s %.0f" path s.self_minor_words)
    snap

let alloc_path path =
  if Filename.check_suffix path ".folded" then
    Filename.chop_suffix path ".folded" ^ ".alloc.folded"
  else path ^ ".alloc"

(* [profile.export] is the fault probe the smoke matrix kills at: a
   SIGKILL here must leave no .folded at all (the writes below go
   through Atomic_io, so a kill mid-write leaves only a temp file) *)
let write_folded path =
  if Fault.armed () then Fault.hit "profile.export";
  let snap = snapshot () in
  let dump flavor path =
    Atomic_io.write_file path (fun oc ->
        List.iter
          (fun line ->
            output_string oc line;
            output_char oc '\n')
          (folded_lines flavor snap))
  in
  dump Wall_ns path;
  dump Minor_words (alloc_path path)

(* --- offline reconstruction from recorded span events --- *)

let num_field k j =
  match Json.member k j with
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

type node = {
  n_name : string;
  n_start : float;
  n_ns : int;
  n_minor : float;
  mutable n_children : node list;
}

(* Rebuild the span tree of one domain from its close events (already
   in close order: a parent's event always follows its children's).
   Classic folded-stack reconstruction: when a close arrives, every
   pending subtree that STARTED after it is one of its children. *)
let tree_of_closes closes =
  let pending = ref [] in
  let roots = ref [] in
  List.iter
    (fun (name, start, ns, minor) ->
      let node =
        { n_name = name; n_start = start; n_ns = ns; n_minor = minor; n_children = [] }
      in
      let rec claim = function
        | top :: rest when top.n_start >= start ->
            node.n_children <- top :: node.n_children;
            claim rest
        | rest -> rest
      in
      pending := node :: claim !pending)
    closes;
  (* anything still pending is a top-level span *)
  roots := List.rev !pending;
  !roots

let of_events events =
  let by_dom : (int, (string * float * int * float) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let dom_order = ref [] in
  List.iter
    (fun j ->
      match Json.member "event" j with
      | Some (Json.Str "span") -> (
          match (Json.member "name" j, num_field "dur_us" j) with
          | Some (Json.Str name), Some dur_us ->
              let ts = Option.value ~default:0. (num_field "ts_us" j) in
              (* recordings made by this library carry the span's own
                 start stamp; older ones fall back to close - duration *)
              let start =
                Option.value ~default:(ts -. dur_us) (num_field "t0_us" j)
              in
              let ns = int_of_float (Float.round (dur_us *. 1e3)) in
              let minor = Option.value ~default:0. (num_field "minor_w" j) in
              let dom =
                match Json.member "dom" j with
                | Some (Json.Int d) -> d
                | _ -> 0
              in
              let bucket =
                match Hashtbl.find_opt by_dom dom with
                | Some l -> l
                | None ->
                    let l = ref [] in
                    Hashtbl.add by_dom dom l;
                    dom_order := dom :: !dom_order;
                    l
              in
              bucket := (name, start, ns, minor) :: !bucket
          | _ -> ())
      | _ -> ())
    events;
  let acc : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  let add path ~self_ns ~self_minor =
    let c =
      match Hashtbl.find_opt acc path with
      | Some c -> c
      | None ->
          let c = { c_count = 0; c_self_ns = 0; c_self_minor = 0. } in
          Hashtbl.add acc path c;
          c
    in
    c.c_count <- c.c_count + 1;
    c.c_self_ns <- c.c_self_ns + self_ns;
    c.c_self_minor <- c.c_self_minor +. self_minor
  in
  let rec walk prefix node =
    let path = if prefix = "" then node.n_name else prefix ^ ";" ^ node.n_name in
    let child_ns = List.fold_left (fun a c -> a + c.n_ns) 0 node.n_children in
    let child_minor =
      List.fold_left (fun a c -> a +. c.n_minor) 0. node.n_children
    in
    add path ~self_ns:(node.n_ns - child_ns)
      ~self_minor:(node.n_minor -. child_minor);
    List.iter (walk path) node.n_children
  in
  List.iter
    (fun dom ->
      let closes = List.rev !(Hashtbl.find by_dom dom) in
      List.iter (walk "") (tree_of_closes closes))
    (List.rev !dom_order);
  List.sort compare
    (Hashtbl.fold
       (fun path c acc ->
         ( path,
           {
             count = c.c_count;
             self_ns = c.c_self_ns;
             self_minor_words = c.c_self_minor;
           } )
         :: acc)
       acc [])

(* top self-time paths, for Stats.print and report --summarize *)
let top ?(limit = 10) snap =
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
      snap
  in
  List.filteri (fun i _ -> i < limit) sorted
