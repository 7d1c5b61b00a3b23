module N = Bignum.Nat
module Pool = Parallel.Pool

(* Barrett precomps of the nodes are built lazily per level (or
   eagerly via [precompute]) and memoised in the option slots. Only
   the plain descent reads them, and only where a tree takes several
   of those descents. A mod-square step divides directly, since each
   squared node is read by one reduction per descent. The cache is
   single-writer: descents fill it from the calling domain before
   fanning a level out, and the distributed driver precomputes every
   tree before its parallel phase, so workers only ever read. *)
type t = {
  levels : N.t array array;
  node_pre : N.precomp array option array;
}

(* Level-parallel cutoffs: a level fans out onto the pool only when it
   has enough independent nodes to share and each node is wide enough
   that the multiply dwarfs the dispatch cost. Near the root both
   conditions fail (one giant N.mul) and the build stays serial. *)
let min_par_nodes = 4
let min_par_limbs = 4

let level_parallel ~nodes ~width =
  nodes >= min_par_nodes && width >= min_par_limbs

(* Width of a level is its widest node: gating on the first node alone
   misclassifies a level whose leading node happens to be a narrow
   odd-one-out (e.g. a tiny modulus sorted first). *)
let max_width lvl =
  Array.fold_left (fun acc x -> Stdlib.max acc (N.size_limbs x)) 0 lvl

let build ?pool inputs =
  if Array.length inputs = 0 then invalid_arg "Product_tree.build: empty";
  Array.iter
    (fun x -> if N.is_zero x then invalid_arg "Product_tree.build: zero input")
    inputs;
  let rec up acc level =
    let n = Array.length level in
    if n = 1 then List.rev (level :: acc)
    else begin
      let pairs = (n + 1) / 2 in
      let node i =
        if (2 * i) + 1 < n then N.mul level.(2 * i) level.((2 * i) + 1)
        else level.(2 * i)
      in
      let next =
        if level_parallel ~nodes:pairs ~width:(max_width level) then
          Pool.init ?pool pairs node
        else Array.init pairs node
      in
      up (level :: acc) next
    end
  in
  let levels = Array.of_list (up [] inputs) in
  let d = Array.length levels in
  { levels; node_pre = Array.make d None }

(* Reconstruct a tree from serialized levels (checkpoint restore).
   Only the shape is validated — the node values are trusted to be the
   products they claim to be, exactly as [build] trusts its inputs.
   Precomp caches start empty and refill lazily or via [precompute]. *)
let of_levels levels =
  let d = Array.length levels in
  if d = 0 then invalid_arg "Product_tree.of_levels: no levels";
  if Array.length levels.(d - 1) <> 1 then
    invalid_arg "Product_tree.of_levels: top level must hold one node";
  for k = 0 to d - 2 do
    let n = Array.length levels.(k) in
    if n = 0 then invalid_arg "Product_tree.of_levels: empty level";
    if Array.length levels.(k + 1) <> (n + 1) / 2 then
      invalid_arg "Product_tree.of_levels: level sizes do not halve"
  done;
  { levels; node_pre = Array.make d None }

let leaves t = t.levels.(0)
let depth t = Array.length t.levels
let root t = t.levels.(depth t - 1).(0)

let level t k =
  if k < 0 || k >= depth t then invalid_arg "Product_tree.level: out of range"
  else t.levels.(k)

let total_limbs t =
  Array.fold_left
    (fun acc lvl ->
      Array.fold_left (fun acc n -> acc + N.size_limbs n) acc lvl)
    0 t.levels

(* A level's precomps fan out under the same policy as the build
   itself (a precompute is a reciprocal, i.e. multiplies). *)
let node_precomps ?pool t k =
  match t.node_pre.(k) with
  | Some ps -> ps
  | None ->
    let lvl = t.levels.(k) in
    let n = Array.length lvl in
    let node i = N.precompute lvl.(i) in
    let ps =
      if level_parallel ~nodes:n ~width:(max_width lvl) then
        Pool.init ?pool n node
      else Array.init n node
    in
    t.node_pre.(k) <- Some ps;
    ps

(* Root-level precomps are never needed: the plain descent reduces
   by the root with one plain rem, so eager precomputation stops one
   level short. [~squares:true] builds nothing: a squared node is read
   by a single reduction per descent, so its reciprocal would cost
   more than the division it replaces. *)
let precompute ?pool ~squares t =
  if not squares then
    for k = 0 to depth t - 2 do
      ignore (node_precomps ?pool t k)
    done
