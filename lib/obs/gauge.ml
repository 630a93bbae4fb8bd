type t = { name : string; labels : (string * string) list; cell : float Atomic.t }

let registry : t list ref = ref []
let registry_mutex = Mutex.create ()

(* find-or-create by name and label set, like Counter.make — so library
   modules can declare their gauges at top level without coordinating *)
let make ?(labels = []) name =
  Mutex.protect registry_mutex (fun () ->
      match
        List.find_opt (fun g -> g.name = name && g.labels = labels) !registry
      with
      | Some g -> g
      | None ->
          let g = { name; labels; cell = Atomic.make 0. } in
          registry := g :: !registry;
          g)

let set g v = Atomic.set g.cell v
let set_int g v = Atomic.set g.cell (float_of_int v)
let value g = Atomic.get g.cell

let snapshot () =
  let all = Mutex.protect registry_mutex (fun () -> !registry) in
  List.sort compare (List.map (fun g -> (g.name, g.labels, value g)) all)

let to_json () =
  let key name = function
    | [] -> name
    | l ->
        name ^ "{" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) l) ^ "}"
  in
  Json.Obj (List.map (fun (name, l, v) -> (key name l, Json.Float v)) (snapshot ()))

let reset_all () =
  Mutex.protect registry_mutex (fun () ->
      List.iter (fun g -> Atomic.set g.cell 0.) !registry)
