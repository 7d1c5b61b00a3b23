module N = Bignum.Nat
module Pool = Parallel.Pool

type finding = { index : int; modulus : N.t; divisor : N.t }

let dedup moduli =
  let store = Corpus.Store.create ~size:(Array.length moduli) () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) moduli;
  Corpus.Store.to_array store

let finding_of index modulus divisor =
  if N.is_one divisor || N.is_zero divisor then None
  else Some { index; modulus; divisor }

let collect per_index_divisors moduli =
  let out = ref [] in
  for i = Array.length moduli - 1 downto 0 do
    match finding_of i moduli.(i) per_index_divisors.(i) with
    | Some f -> out := f :: !out
    | None -> ()
  done;
  !out

let naive moduli =
  let n = Array.length moduli in
  let divisors =
    Array.init n (fun i ->
        let m = moduli.(i) in
        let acc = ref N.one in
        for j = 0 to n - 1 do
          if j <> i then acc := N.rem (N.mul !acc (N.rem moduli.(j) m)) m
        done;
        N.gcd m !acc)
  in
  collect divisors moduli

let naive_pairwise_hits moduli =
  let n = Array.length moduli in
  let hits = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      let g = N.gcd moduli.(i) moduli.(j) in
      if not (N.is_one g) then hits := (i, j, g) :: !hits
    done
  done;
  !hits

(* Divisor of leaf [m] from its own subset's remainder-mod-square:
   z = P mod m^2 is divisible by m, and z/m = (P/m) mod m. *)
let own_subset_component m z =
  let y, r = N.divmod z m in
  assert (N.is_zero r);
  y

(* The single-tree sweep every forest is seeded from: one product tree,
   one mod-square descent from its root, one leaf gcd per modulus.
   [n] must be positive. *)
let sweep ?pool moduli =
  let tree = Product_tree.build ?pool moduli in
  let zs =
    Remainder_tree.remainders_mod_square ?pool tree (Product_tree.root tree)
  in
  (* The leaf step the whole pipeline funnels into: one N.gcd per
     modulus, at modulus-sized operands — N.gcd dispatches these to
     the Lehmer kernel past its fixed 8-limb cutoff (the
     gcd-outside-nat lint keeps that dispatch unbypassed). *)
  let divisors =
    Array.mapi (fun i m -> N.gcd m (own_subset_component m zs.(i))) moduli
  in
  (tree, collect divisors moduli)

let factor_forest ?pool ~segment moduli =
  if Array.length moduli = 0 then ([||], [])
  else begin
    let tree, findings = sweep ?pool moduli in
    (Product_tree.cut tree ~size:segment, findings)
  end

let factor_batch ?pool moduli =
  if Array.length moduli = 0 then []
  else snd (sweep ?pool moduli)

let factor_subsets ?pool ~k moduli =
  let n = Array.length moduli in
  if n = 0 then []
  else begin
    let k = Stdlib.max 1 (Stdlib.min k n) in
    (* Contiguous split; subset s covers [starts.(s), starts.(s+1)). *)
    let starts =
      Array.init (k + 1) (fun s -> s * n / k)
    in
    let subset s = Array.sub moduli starts.(s) (starts.(s + 1) - starts.(s)) in
    (* Outer parallelism is across subsets; the per-job tree kernels
       also receive the pool, so whichever level has spare domains
       (k = 1, or a single huge subset) still scales. Nested calls
       from inside pool workers degrade to serial automatically. *)
    let trees =
      Pool.map ?pool (fun s -> Product_tree.build ?pool (subset s))
        (Array.init k (fun s -> s))
    in
    let products = Array.map Product_tree.root trees in
    (* k^2 reduction jobs: product j through tree i. Own-subset pairs
       use the mod-square descent; cross pairs plain remainders. *)
    let jobs =
      Array.init (k * k) (fun idx -> (idx / k, idx mod k))
    in
    let job (i, j) =
      let tree = trees.(i) in
      let contributions =
        if i = j then
          Array.mapi
            (fun l z -> own_subset_component (Product_tree.leaves tree).(l) z)
            (Remainder_tree.remainders_mod_square ?pool tree products.(j))
        else Remainder_tree.remainders ?pool tree products.(j)
      in
      (i, contributions)
    in
    let pieces = Pool.map ?pool job jobs in
    (* For global index g in subset i, the divisor is
       gcd(m, prod over j of contribution_ij mod m) — identical to the
       single-tree accumulation. *)
    let acc = Divisor_acc.create moduli in
    Array.iter
      (fun (i, contributions) ->
        Array.iteri (fun l c -> Divisor_acc.mul acc (starts.(i) + l) c) contributions)
      pieces;
    collect (Divisor_acc.divisors acc) moduli
  end

let findings_equal a b =
  let cmp f g =
    match Int.compare f.index g.index with
    | 0 -> (
      match N.compare f.modulus g.modulus with
      | 0 -> N.compare f.divisor g.divisor
      | c -> c)
    | c -> c
  in
  let sort l = List.sort cmp l in
  List.equal (fun f g -> cmp f g = 0) (sort a) (sort b)
