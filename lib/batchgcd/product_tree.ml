module N = Bignum.Nat
module Pool = Parallel.Pool

(* Levels, leaves first. Immutable once built, so any number of
   descents may share one tree from any domain. *)
type t = N.t array array

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
  Array.of_list (up [] inputs)

(* Reconstruct a tree from serialized levels (checkpoint restore).
   Only the shape is validated — the node values are trusted to be the
   products they claim to be, exactly as [build] trusts its inputs. *)
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
  levels

let leaves (t : t) = t.(0)
let depth (t : t) = Array.length t
let root t = t.(depth t - 1).(0)

let level t k =
  if k < 0 || k >= depth t then invalid_arg "Product_tree.level: out of range"
  else t.(k)

let total_limbs t =
  Array.fold_left
    (fun acc lvl ->
      Array.fold_left (fun acc n -> acc + N.size_limbs n) acc lvl)
    0 t

(* Kept so existing callers compile: a tree holds no derived tables,
   so there is nothing to build ahead of a descent. *)
let precompute ?pool:_ ~squares:_ _ = ()
