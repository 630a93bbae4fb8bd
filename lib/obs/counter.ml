let cells = 8 (* power of two: the cell index masks the domain id *)

type t = { name : string; cells : int Atomic.t array }

let registry : (string, t) Hashtbl.t = Hashtbl.create 64
let registry_mutex = Mutex.create ()

let make name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { name; cells = Array.init cells (fun _ -> Atomic.make 0) } in
          Hashtbl.add registry name c;
          c)

let cell c = c.cells.((Domain.self () :> int) land (cells - 1))
let bump c = Atomic.incr (cell c)
let add c k = ignore (Atomic.fetch_and_add (cell c) k)
let get c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.cells

let find name =
  match Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt registry name) with
  | Some c -> get c
  | None -> 0

let snapshot () =
  let all =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) registry [])
  in
  List.sort compare (List.map (fun c -> (c.name, get c)) all)

let reset_all () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ c -> Array.iter (fun a -> Atomic.set a 0) c.cells) registry)
