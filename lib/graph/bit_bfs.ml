type t = {
  n : int;
  offs : int array;
  targets : int array;
  seen : int array;
  mutable front : int array;
  mutable next : int array;
  (* [queue.(0 .. count-1)] lists every vertex whose [front] word is
     nonzero (a pruned vertex may linger there with a zero word);
     [spare] collects the next level's list *)
  mutable queue : int array;
  mutable spare : int array;
  mutable count : int;
}

let width = Sys.int_size

let create ~offs ~targets =
  let n = Array.length offs - 1 in
  if n < 0 then invalid_arg "Bit_bfs.create: empty offsets";
  {
    n;
    offs;
    targets;
    seen = Array.make n 0;
    front = Array.make n 0;
    next = Array.make n 0;
    queue = Array.make n 0;
    spare = Array.make n 0;
    count = 0;
  }

(* [next] is all zeros between steps, so only [seen] and [front] need
   clearing *)
let clear t =
  Array.fill t.seen 0 t.n 0;
  Array.fill t.front 0 t.n 0;
  t.count <- 0

let seed t v bits =
  if bits <> 0 then begin
    if t.front.(v) = 0 then begin
      t.queue.(t.count) <- v;
      t.count <- t.count + 1
    end;
    t.seen.(v) <- t.seen.(v) lor bits;
    t.front.(v) <- t.front.(v) lor bits
  end

let prune t v =
  t.seen.(v) <- -1;
  t.front.(v) <- 0

(* One push pass over the arcs of the frontier vertices: each neighbour
   takes the frontier word ANDNOT what it has seen.  [seen] is updated
   in place, so a bit that reaches a vertex twice in one level counts
   once; every frontier word is zeroed on the way, which leaves the
   array ready to serve as the level after next's [next].  Indices are
   queued vertices below [n] or arc slots inside [offs.(u) ..
   offs.(u+1) - 1], so the accesses are unsafe. *)
let step t =
  let offs = t.offs and targets = t.targets and seen = t.seen in
  let front = t.front and next = t.next in
  let queue = t.queue and spare = t.spare in
  let fresh_count = ref 0 in
  for i = 0 to t.count - 1 do
    let u = Array.unsafe_get queue i in
    let w = Array.unsafe_get front u in
    if w <> 0 then begin
      for k = Array.unsafe_get offs u to Array.unsafe_get offs (u + 1) - 1 do
        let v = Array.unsafe_get targets k in
        let s = Array.unsafe_get seen v in
        let fresh = w land lnot s in
        if fresh <> 0 then begin
          let x = Array.unsafe_get next v in
          if x = 0 then begin
            Array.unsafe_set spare !fresh_count v;
            incr fresh_count
          end;
          Array.unsafe_set next v (x lor fresh);
          Array.unsafe_set seen v (s lor fresh)
        end
      done;
      Array.unsafe_set front u 0
    end
  done;
  t.front <- next;
  t.next <- front;
  t.queue <- spare;
  t.spare <- queue;
  t.count <- !fresh_count

let seen t = t.seen
let front t = t.front
let queue t = t.queue
let count t = t.count
