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

(* A node at level [top] covers leaves [j * 2^top, (j+1) * 2^top), and
   [build] pairs from index 0 at every level, so slicing each level
   below it gives exactly the tree [build] makes over those leaves. The
   last slice stops at its first one-node level, where [build] over a
   short tail would stop too. *)
let cut t ~size =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Product_tree.cut: size must be a power of two";
  if size >= Array.length (leaves t) then [| (0, t) |]
  else begin
    let rec log2 s = if s = 1 then 0 else 1 + log2 (s / 2) in
    let top = log2 size in
    Array.init (Array.length t.(top)) (fun j ->
        let rec slice l acc =
          let w = 1 lsl (top - l) in
          let len = Stdlib.min w (Array.length t.(l) - (j * w)) in
          let acc = Array.sub t.(l) (j * w) len :: acc in
          if len = 1 then Array.of_list (List.rev acc) else slice (l + 1) acc
        in
        (j * size, slice 0 []))
  end

let total_limbs t =
  Array.fold_left
    (fun acc lvl ->
      Array.fold_left (fun acc n -> acc + N.size_limbs n) acc lvl)
    0 t

(* Kept so existing callers compile: a tree holds no derived tables,
   so there is nothing to build ahead of a descent. *)
let precompute ?pool:_ ~squares:_ _ = ()
