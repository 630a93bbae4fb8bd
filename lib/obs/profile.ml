(* The one span store.  Each domain keeps its stack of open spans, and
   closing a span records it once, at its full call path "a;b;c": the
   close's inclusive wall, max, GC words and latency bucket, plus its
   SELF time (wall minus the wall of its direct children) and SELF
   allocation (minor words minus the children's minor words).  The
   per-name {!Span.snapshot} is a rollup of this table.

   Attribution telescopes exactly: a parent accumulates each child's
   recorded integer wall/minor into [child_ns]/[child_minor], so the
   sum of self values over a well-nested subtree equals the root's
   recorded wall to the nanosecond.  That is what lets tests pin
   "folded per-name totals == per-name Span totals" as an equality,
   not an approximation.

   GC words come from the calling domain's own [Gc.counters], so a
   span is never charged another domain's allocation; a span closed on
   a different domain from the one that opened it records no GC words.

   The accumulation table is sharded per domain (same Domain.self
   pattern as Counter) so Parallel workers record without contending;
   the open-span stacks live in domain-local storage and never need a
   lock at all. *)

type stat = { count : int; self_ns : int; self_minor_words : float }

(* --- per-domain open-span stacks --- *)

type frame = {
  f_name : string;
  f_path : string;
  f_dom : int;
  f_t0 : float;
  (* the opening domain's (minor, promoted, major) words *)
  f_gc0 : float * float * float;
  mutable child_ns : int;
  mutable child_minor : float;
  (* cleared when the frame leaves its stack — a later (out-of-order or
     cross-domain) close then only records, never touches a stack *)
  mutable on_stack : bool;
  (* set by the first close: tokens are affine *)
  mutable closed : bool;
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
  c_name : string;
  mutable c_count : int;
  mutable c_self_ns : int;
  mutable c_self_minor : float;
  mutable c_wall_ns : int;
  mutable c_max_ns : int;
  mutable c_minor : float;
  mutable c_major : float;
  (* unregistered so the domain-value histogram listing stays free of
     span latencies *)
  c_hist : Histogram.t;
}

let shards = 8
let shard_index () = (Domain.self () :> int) land (shards - 1)

type shard = { tbl : (string, cell) Hashtbl.t; mu : Mutex.t }

let table = Array.init shards (fun _ -> { tbl = Hashtbl.create 32; mu = Mutex.create () })

let record f ~wall_ns ~minor ~major =
  let sh = table.(shard_index ()) in
  Mutex.protect sh.mu (fun () ->
      let c =
        match Hashtbl.find_opt sh.tbl f.f_path with
        | Some c -> c
        | None ->
            let c =
              {
                c_name = f.f_name;
                c_count = 0;
                c_self_ns = 0;
                c_self_minor = 0.;
                c_wall_ns = 0;
                c_max_ns = 0;
                c_minor = 0.;
                c_major = 0.;
                c_hist = Histogram.unregistered f.f_name;
              }
            in
            Hashtbl.add sh.tbl f.f_path c;
            c
      in
      c.c_count <- c.c_count + 1;
      c.c_self_ns <- c.c_self_ns + (wall_ns - f.child_ns);
      c.c_self_minor <- c.c_self_minor +. (minor -. f.child_minor);
      c.c_wall_ns <- c.c_wall_ns + wall_ns;
      if wall_ns > c.c_max_ns then c.c_max_ns <- wall_ns;
      c.c_minor <- c.c_minor +. minor;
      c.c_major <- c.c_major +. major;
      Histogram.record c.c_hist wall_ns)

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
        f_name = name;
        f_path = path;
        f_dom = (Domain.self () :> int);
        f_t0 = Unix.gettimeofday ();
        f_gc0 = Gc.counters ();
        child_ns = 0;
        child_minor = 0.;
        on_stack = true;
        closed = false;
      }
    in
    st.stack <- f :: st.stack;
    Some f
  end

(* pop down to [f]; anything above it was opened later but is being
   closed out of order — detach those frames so their own close
   records to their (already fixed) path without touching the stack.
   The stack itself stays consistent. *)
let pop f ~wall_ns ~minor =
  let st = Domain.DLS.get dls in
  if List.memq f st.stack then begin
    let rec go = function
      | g :: rest ->
          g.on_stack <- false;
          if g == f then rest else go rest
      | [] -> []
    in
    st.stack <- go st.stack;
    match st.stack with
    | p :: _ ->
        p.child_ns <- p.child_ns + wall_ns;
        p.child_minor <- p.child_minor +. minor
    | [] -> ()
  end
  else f.on_stack <- false

let close = function
  | None -> ()
  | Some f when f.closed -> ()
  | Some f ->
      f.closed <- true;
      let wall_ns =
        max 0 (int_of_float ((Unix.gettimeofday () -. f.f_t0) *. 1e9))
      in
      let dom = (Domain.self () :> int) in
      let minor, major =
        if dom <> f.f_dom then (0., 0.)
        else
          let minor0, _, major0 = f.f_gc0
          and minor1, _, major1 = Gc.counters () in
          (minor1 -. minor0, major1 -. major0)
      in
      record f ~wall_ns ~minor ~major;
      if f.on_stack && dom = f.f_dom then pop f ~wall_ns ~minor;
      (* a sinked run also sees each span close as an event, which is
         what Trace_export turns into Chrome complete slices.  t0_us is
         the span's exact start on the shared event clock (ts_us lags
         the close by the emit path, so ts - dur cannot recover it);
         dom and minor_w let `bbng_cli flame` re-nest per-domain stacks
         and attribute allocation offline. *)
      if Sink.active () then
        Sink.emit "span"
          [
            ("name", Json.Str f.f_name);
            ("dur_us", Json.Float (float_of_int wall_ns /. 1e3));
            ("t0_us", Json.Float (Sink.to_us f.f_t0));
            ("dom", Json.Int dom);
            ("minor_w", Json.Float minor);
          ]

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

type closes = {
  name : string;
  closes : int;
  wall_ns : int;
  max_ns : int;
  minor_words : float;
  major_words : float;
  latency : Histogram.t list;
}

(* path -> value tables, merged by [add] and listed sorted by key —
   shared by the live snapshots, [name_totals] and [of_events] *)
let accumulate tbl add key v =
  Hashtbl.replace tbl key
    (match Hashtbl.find_opt tbl key with Some a -> add a v | None -> v)

let sorted tbl =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let add_stat a b =
  {
    count = a.count + b.count;
    self_ns = a.self_ns + b.self_ns;
    self_minor_words = a.self_minor_words +. b.self_minor_words;
  }

let add_closes a b =
  {
    a with
    closes = a.closes + b.closes;
    wall_ns = a.wall_ns + b.wall_ns;
    max_ns = max a.max_ns b.max_ns;
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    latency = a.latency @ b.latency;
  }

(* merge the shards' cells by path without stopping writers *)
let merged () =
  let acc = Hashtbl.create 64 in
  Array.iter
    (fun sh ->
      Mutex.protect sh.mu (fun () ->
          Hashtbl.iter
            (fun path c ->
              accumulate acc
                (fun (s, k) (s', k') -> (add_stat s s', add_closes k k'))
                path
                ( { count = c.c_count; self_ns = c.c_self_ns;
                    self_minor_words = c.c_self_minor },
                  { name = c.c_name; closes = c.c_count; wall_ns = c.c_wall_ns;
                    max_ns = c.c_max_ns; minor_words = c.c_minor;
                    major_words = c.c_major; latency = [ c.c_hist ] } ))
            sh.tbl))
    table;
  sorted acc

let snapshot () = List.map (fun (path, (s, _)) -> (path, s)) (merged ())
let closes () = List.map (fun (path, (_, k)) -> (path, k)) (merged ())

let reset_all () =
  Array.iter (fun sh -> Mutex.protect sh.mu (fun () -> Hashtbl.reset sh.tbl)) table

(* Per-name rollup of a path snapshot: a name's inclusive total is the
   sum of self values over every path it appears on, counted once per
   occurrence (so recursive spans — "a;b;a" — roll up exactly like the
   per-name Span view, which counts every close).  Count is closes,
   i.e. paths that END in the name. *)
let name_totals snap =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (path, (s : stat)) ->
      let segs = String.split_on_char ';' path in
      (match List.rev segs with
      | last :: _ ->
          accumulate tbl add_stat last
            { count = s.count; self_ns = 0; self_minor_words = 0. }
      | [] -> ());
      List.iter
        (fun name -> accumulate tbl add_stat name { s with count = 0 })
        segs)
    snap;
  sorted tbl

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
      match
        (Json.event_name j, Json.str_field "name" j, Json.num_field "dur_us" j)
      with
      | "span", Some name, Some dur_us ->
          let ts = Option.value ~default:0. (Json.num_field "ts_us" j) in
          (* recordings made by this library carry the span's own start
             stamp; older ones fall back to close - duration *)
          let start =
            Option.value ~default:(ts -. dur_us) (Json.num_field "t0_us" j)
          in
          let ns = int_of_float (Float.round (dur_us *. 1e3)) in
          let minor = Option.value ~default:0. (Json.num_field "minor_w" j) in
          let dom = Option.value ~default:0 (Json.int_field "dom" j) in
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
    events;
  let acc = Hashtbl.create 64 in
  let rec walk prefix node =
    let path = if prefix = "" then node.n_name else prefix ^ ";" ^ node.n_name in
    let child_ns = List.fold_left (fun a c -> a + c.n_ns) 0 node.n_children in
    let child_minor =
      List.fold_left (fun a c -> a +. c.n_minor) 0. node.n_children
    in
    accumulate acc add_stat path
      {
        count = 1;
        self_ns = node.n_ns - child_ns;
        self_minor_words = node.n_minor -. child_minor;
      };
    List.iter (walk path) node.n_children
  in
  List.iter
    (fun dom ->
      let closes = List.rev !(Hashtbl.find by_dom dom) in
      List.iter (walk "") (tree_of_closes closes))
    (List.rev !dom_order);
  sorted acc

(* top self-time paths, for Stats.print and report --summarize *)
let top ?(limit = 10) snap =
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare b.self_ns a.self_ns)
      snap
  in
  List.filteri (fun i _ -> i < limit) sorted
