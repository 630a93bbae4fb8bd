let recommended_domains () = max 1 (Domain.recommended_domain_count () - 1)

let c_spawned = Bbng_obs.Counter.make "parallel.domains_spawned"
let c_abandoned = Bbng_obs.Counter.make "parallel.chunks_abandoned"

(* Counter cells are per domain: workers on different domains bump
   different atomics, and reads sum the cells, so the total is the same
   whether the work ran on 1 domain or 8 *)
let c_tasks = Bbng_obs.Counter.make "parallel.tasks_executed"

(* indices this worker never evaluated because the early-exit flag
   tripped; each per-index task is one "chunk" of the block-cyclic
   distribution *)
let abandoned_by ~n ~k i = if i < n then (n - i + k - 1) / k else 0

(* the number of domains a fan-out over [n] indices uses *)
let domain_count ?domains n =
  min n (match domains with Some d -> max 1 d | None -> recommended_domains ())

(* Run [worker d] for d = 0 .. k-1: worker 0 on the calling domain, the
   rest on spawned domains, all joined before returning.  Spawned
   workers root their span paths under the caller's current call path,
   so a parallel fan-out's spans fold into the same flamegraph branch
   as the single-domain run's. *)
let fan_out k worker =
  let base = Bbng_obs.Profile.current_path () in
  let spawned =
    List.init (k - 1) (fun d ->
        Domain.spawn (fun () ->
            Bbng_obs.Profile.with_root base (fun () -> worker (d + 1))))
  in
  Bbng_obs.Counter.add c_spawned (k - 1);
  worker 0;
  List.iter Domain.join spawned

(* Block-cyclic index distribution: domain d handles indices
   d, d + k, d + 2k, ...  This balances heterogeneous per-index work
   (low player indices are not systematically cheaper). *)
let map ?domains ~n f =
  let k = domain_count ?domains n in
  if k <= 1 || n <= 1 then
    Array.init n (fun i ->
        Bbng_obs.Counter.bump c_tasks;
        f i)
  else begin
    let results = Array.make n None in
    fan_out k (fun d ->
        let i = ref d in
        while !i < n do
          Bbng_obs.Counter.bump c_tasks;
          results.(!i) <- Some (f !i);
          i := !i + k
        done);
    Array.map
      (function Some r -> r | None -> assert false (* every index visited *))
      results
  end

(* Dynamic (work-stealing-ish) scheduling: indices are claimed one at
   a time from a shared atomic counter, so wildly heterogeneous task
   costs — census shards whose equilibrium density varies across the
   profile space — balance without any cost model.  Block-cyclic [map]
   stays the right tool for near-uniform per-index work (per-player
   certification): it touches the counter cache line not at all. *)
let map_dynamic ?domains ~n f =
  let k = domain_count ?domains n in
  if k <= 1 || n <= 1 then
    Array.init n (fun i ->
        Bbng_obs.Counter.bump c_tasks;
        f i)
  else begin
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Bbng_obs.Counter.bump c_tasks;
        results.(i) <- Some (f i);
        worker ()
      end
    in
    fan_out k (fun _ -> worker ());
    Array.map
      (function Some r -> r | None -> assert false (* every index claimed *))
      results
  end

let find_map ?domains ~n f =
  let k = domain_count ?domains n in
  if k <= 1 || n <= 1 then begin
    let rec go i =
      if i >= n then None
      else begin
        Bbng_obs.Counter.bump c_tasks;
        match f i with Some _ as r -> r | None -> go (i + 1)
      end
    in
    go 0
  end
  else begin
    let result = Atomic.make None in
    fan_out k (fun d ->
        let i = ref d in
        while Atomic.get result = None && !i < n do
          Bbng_obs.Counter.bump c_tasks;
          (match f !i with
          | Some _ as r ->
              (* keep the first writer's answer *)
              ignore (Atomic.compare_and_set result None r)
          | None -> ());
          i := !i + k
        done;
        Bbng_obs.Counter.add c_abandoned (abandoned_by ~n ~k !i));
    Atomic.get result
  end
