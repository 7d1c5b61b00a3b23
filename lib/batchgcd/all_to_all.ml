module N = Bignum.Nat
module PT = Product_tree
module Pool = Parallel.Pool

(* Pelofske-style all-to-all batch GCD (arXiv 2405.03166): instead of
   remainder-tree descents, compare product-tree nodes pairwise and
   prune every cross product whose roots are coprime. A node is
   (level, index) into a product tree; the children of (k, i) are
   (k-1, 2i) and (k-1, 2i+1) when the lower level has them — an odd
   trailing node carries its single child's value unchanged. *)

type node = int * int

let value tree (k, i) = (PT.level tree k).(i)
let is_leaf ((k, _) : node) = k = 0

let children tree ((k, i) : node) =
  let lower = PT.level tree (k - 1) in
  let l : node = (k - 1, 2 * i) in
  if (2 * i) + 1 < Array.length lower then (l, Some ((k - 1, (2 * i) + 1) : node))
  else (l, None)

(* Tasks of the pruned pair recursion. [Cross (bound, a, b)] compares
   subtree [a] of the first tree with subtree [b] of the second;
   [bound] is the gcd computed at the parent pair. Every common prime
   of the two subtree products divides the bound with at least the
   smaller of the two exponents (the bound is a gcd of ancestor
   products, which contain both subtrees as factors), so
   gcd(gcd(va, g), gcd(vb, g)) = gcd(va, vb) exactly — after the
   first comparison, all deeper gcds run against a typically tiny
   bound instead of two subtree products. [Self k i] decomposes the
   pairs within one subtree: pairs within each child plus the
   child-vs-child cross product, so every unordered leaf pair is
   compared exactly once. *)
type task = Self of node | Cross of N.t option * node * node

let pair_gcd bound va vb =
  match bound with
  | None -> N.gcd va vb
  | Some g -> N.gcd (N.gcd va g) (N.gcd vb g)

(* One task step: returns (leaf-pair hits, successor tasks). Pure —
   it only reads the (immutable) tree levels — so a frontier of steps
   can fan out on the pool. *)
let step ta tb task =
  match task with
  | Self n ->
    if is_leaf n then ([], [])
    else begin
      match children ta n with
      | c1, None -> ([], [ Self c1 ])
      | c1, Some c2 -> ([], [ Self c1; Self c2; Cross (None, c1, c2) ])
    end
  | Cross (bound, a, b) ->
    let g = pair_gcd bound (value ta a) (value tb b) in
    if N.is_one g then ([], [])
    else if is_leaf a && is_leaf b then ([ (snd a, snd b, g) ], [])
    else begin
      let bound = Some g in
      let expand_b a =
        match children tb b with
        | c1, None -> [ Cross (bound, a, c1) ]
        | c1, Some c2 -> [ Cross (bound, a, c1); Cross (bound, a, c2) ]
      in
      if is_leaf a then ([], expand_b a)
      else if is_leaf b then
        ( [],
          match children ta a with
          | c1, None -> [ Cross (bound, c1, b) ]
          | c1, Some c2 -> [ Cross (bound, c1, b); Cross (bound, c2, b) ] )
      else begin
        match children ta a with
        | c1, None -> ([], expand_b c1)
        | c1, Some c2 -> ([], List.rev_append (expand_b c1) (expand_b c2))
      end
    end

(* Breadth-first frontier driver: each round maps [step] over the
   surviving pairs (on the pool when there is real fan-out), then
   merges hits and successors sequentially. Hit order is irrelevant —
   the divisor accumulation (Divisor_acc) commutes — so the parallel
   schedule cannot perturb results. *)
let run ?pool ta tb roots =
  let hits = ref [] in
  let frontier = ref roots in
  while !frontier <> [] do
    let tasks = Array.of_list !frontier in
    let results =
      match pool with
      | Some pool when Array.length tasks > 1 ->
        Pool.map ~pool (step ta tb) tasks
      | _ -> Array.map (step ta tb) tasks
    in
    frontier := [];
    Array.iter
      (fun (hs, ts) ->
        hits := List.rev_append hs !hits;
        frontier := List.rev_append ts !frontier)
      results;
  done;
  !hits

let top tree : node = (PT.depth tree - 1, 0)

let pairwise_hits ?pool tree = run ?pool tree tree [ Self (top tree) ]

let cross_hits ?pool ta tb = run ?pool ta tb [ Cross (None, top ta, top tb) ]
