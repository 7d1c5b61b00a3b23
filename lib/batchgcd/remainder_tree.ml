module N = Bignum.Nat
module Pool = Parallel.Pool

(* Shared descent: [reduce node r] maps a node and its parent's
   remainder to the node's remainder. Children index i draws from
   parent i/2, matching how Product_tree pairs nodes upward. Nodes of
   one level fan out on the pool, subject to the same serial cutoff
   as the product tree. *)
let descend ?pool tree ~reduce v =
  let d = Product_tree.depth tree in
  let rs = ref [| reduce (Product_tree.root tree) v |] in
  for k = d - 2 downto 0 do
    let lvl = Product_tree.level tree k in
    let parent = !rs in
    let n = Array.length lvl in
    let node i = reduce lvl.(i) parent.(i / 2) in
    rs :=
      if
        Product_tree.level_parallel ~nodes:n
          ~width:(Product_tree.max_width lvl)
      then Pool.init ?pool n node
      else Array.init n node
  done;
  !rs

(* A value of fewer than 2*bits(node) - 1 bits is already below
   node^2, so its reduction is the identity and the square is never
   formed. At the root this almost always holds: the value pushed
   down is a product of the very moduli under the root, so the check
   skips squaring the root — the single biggest multiply of the whole
   pipeline. *)
let remainders_mod_square ?pool tree v =
  descend ?pool tree v ~reduce:(fun node r ->
      if N.num_bits r < (2 * N.num_bits node) - 1 then r
      else N.rem r (N.sqr node))

let remainders ?pool tree v =
  descend ?pool tree v ~reduce:(fun node r -> N.rem r node)
