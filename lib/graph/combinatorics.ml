type count = Exact of int | Saturated

let count_to_string = function
  | Exact c -> string_of_int c
  | Saturated -> "saturated"

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let binomial n k =
  if k < 0 || k > n then Exact 0
  else begin
    let k = min k (n - k) in
    let rec go acc i =
      if i > k then Exact acc
      else
        (* acc * (n - k + i) / i is exact at every step; dividing the
           reduced denominator out of acc *before* multiplying makes the
           overflow check exact too — it trips iff the intermediate
           C(n-k+i, i) itself exceeds max_int, and the intermediates
           increase toward C(n, k), so Saturated means exactly "the true
           value does not fit", never a false alarm on a large
           numerator. *)
        let num = n - k + i in
        let d = gcd num i in
        let num = num / d and den = i / d in
        (* den | acc: acc * num is divisible by i and gcd(num, den) = 1 *)
        let acc = acc / den in
        if acc > max_int / num then Saturated else go (acc * num) (i + 1)
    in
    go 1 1
  end

let binomial_sat n k = match binomial n k with Exact c -> c | Saturated -> max_int

exception Stop

(* Lexicographic rank/unrank over k-subsets of {0..n-1}: the census
   shards a profile space into pure (lo, hi) index ranges, so a shard
   restart needs "the rank-r subset" without replaying r predecessors.
   Both directions are only meaningful on non-saturated spaces; the
   intermediate binomials are then sub-counts of an exact total, hence
   exact themselves. *)

let unrank_combination ~n ~k rank =
  (match binomial n k with
  | Exact total when 0 <= rank && rank < total -> ()
  | Exact _ -> invalid_arg "Combinatorics.unrank_combination: rank out of range"
  | Saturated ->
      invalid_arg "Combinatorics.unrank_combination: saturated subset space");
  let c = Array.make k 0 in
  let rank = ref rank in
  let v = ref 0 in
  for i = 0 to k - 1 do
    (* the subsets starting with value v at slot i form a block of
       C(n - 1 - v, k - 1 - i); walk blocks until the rank falls inside *)
    let rec pick v' =
      let block = binomial_sat (n - 1 - v') (k - 1 - i) in
      if !rank < block then v'
      else begin
        rank := !rank - block;
        pick (v' + 1)
      end
    in
    let chosen = pick !v in
    c.(i) <- chosen;
    v := chosen + 1
  done;
  c

let rank_combination ~n c =
  let k = Array.length c in
  (match binomial n k with
  | Exact _ -> ()
  | Saturated ->
      invalid_arg "Combinatorics.rank_combination: saturated subset space");
  let rank = ref 0 in
  let prev = ref 0 in
  for i = 0 to k - 1 do
    for v = !prev to c.(i) - 1 do
      rank := !rank + binomial_sat (n - 1 - v) (k - 1 - i)
    done;
    prev := c.(i) + 1
  done;
  !rank

let next_combination ~n c =
  let k = Array.length c in
  let i = ref (k - 1) in
  while !i >= 0 && c.(!i) = n - k + !i do
    decr i
  done;
  if !i < 0 then false
  else begin
    c.(!i) <- c.(!i) + 1;
    for j = !i + 1 to k - 1 do
      c.(j) <- c.(j - 1) + 1
    done;
    true
  end

(* Lexicographic successor on index arrays: find the rightmost index
   that can still be advanced, advance it, reset the suffix. *)
let iter_combinations ~n ~k f =
  if k < 0 || n < 0 then invalid_arg "Combinatorics: negative argument";
  if k = 0 then f [||]
  else if k <= n then begin
    let c = Array.init k (fun i -> i) in
    let continue = ref true in
    while !continue do
      f c;
      let i = ref (k - 1) in
      while !i >= 0 && c.(!i) = n - k + !i do
        decr i
      done;
      if !i < 0 then continue := false
      else begin
        c.(!i) <- c.(!i) + 1;
        for j = !i + 1 to k - 1 do
          c.(j) <- c.(j - 1) + 1
        done
      end
    done
  end

let fold_best ~n ~k ~score ?stop_at () =
  let best = ref None in
  (try
     iter_combinations ~n ~k (fun c ->
         let s = score c in
         (match !best with
         | Some (_, b) when b <= s -> ()
         | Some _ | None -> best := Some (Array.copy c, s));
         match stop_at with
         | Some floor when s <= floor -> raise Stop
         | Some _ | None -> ())
   with Stop -> ());
  !best
