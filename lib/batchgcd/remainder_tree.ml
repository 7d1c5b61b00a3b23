module N = Bignum.Nat
module Pool = Parallel.Pool

(* Shared descent: [reduce_at k] yields the reducer for level [k],
   mapping a node index and the parent remainder to the node's
   remainder. Children index i draws from parent i/2, matching how
   Product_tree pairs nodes upward. [reduce_at] itself runs once per
   level on the calling domain — that is where the plain descent's
   lazy Barrett precomps get built, keeping the tree's cache
   single-writer — while the per-node reducers fan out on the pool,
   subject to the same serial cutoff as the product tree. *)
let descend ?pool tree ~reduce_at v =
  let d = Product_tree.depth tree in
  let rs = ref [| (reduce_at (d - 1)) 0 v |] in
  for k = d - 2 downto 0 do
    let lvl = Product_tree.level tree k in
    let reduce = reduce_at k in
    let parent = !rs in
    let n = Array.length lvl in
    let node i = reduce i parent.(i / 2) in
    rs :=
      if
        Product_tree.level_parallel ~nodes:n
          ~width:(Product_tree.max_width lvl)
      then Pool.init ?pool n node
      else Array.init n node
  done;
  !rs

let remainders_mod_square ?pool tree v =
  let d = Product_tree.depth tree in
  descend ?pool tree v ~reduce_at:(fun k ->
      let lvl = Product_tree.level tree k in
      if k = d - 1 then
        (* The root reduction is almost always the identity: the value
           pushed down is a product of the very moduli under the root,
           so v < root^2 whenever the tree has >= 2 leaves. Checking
           bit lengths avoids ever squaring the root — the single
           biggest multiply of the whole pipeline. *)
        fun i r ->
          let node = lvl.(i) in
          if N.num_bits r < (2 * N.num_bits node) - 1 then r
          else N.rem r (N.sqr node)
      else fun i r -> N.rem r (N.sqr lvl.(i)))

let remainders ?pool tree v =
  let d = Product_tree.depth tree in
  descend ?pool tree v ~reduce_at:(fun k ->
      let lvl = Product_tree.level tree k in
      if k = d - 1 then fun i r -> N.rem r lvl.(i)
      else
        let pres = Product_tree.node_precomps ?pool tree k in
        fun i r -> N.rem_precomp r pres.(i))
