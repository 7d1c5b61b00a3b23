module N = Bignum.Nat
module PT = Product_tree
module RT = Remainder_tree
module Pool = Parallel.Pool
module BG = Batch_gcd
module Io = Corpus.Io

type t = {
  total : int;
  segments : (int * PT.t) array; (* leaf offset into the corpus, tree *)
  findings : BG.finding list; (* index order *)
}

let findings t = t.findings
let corpus_size t = t.total
let segment_count t = Array.length t.segments
let segments t = Array.copy t.segments

let of_segments ~findings segments =
  let expected = ref 0 in
  Array.iter
    (fun (off, tree) ->
      if off <> !expected then
        invalid_arg "Batchgcd.Incremental.of_segments: segment offsets disagree";
      expected := !expected + Array.length (PT.leaves tree))
    segments;
  let total = !expected in
  List.iter
    (fun f ->
      if f.BG.index < 0 || f.BG.index >= total then
        invalid_arg "Batchgcd.Incremental.of_segments: finding index out of range")
    findings;
  { total; segments = Array.copy segments; findings }

let corpus t =
  if t.total = 0 then [||]
  else
    Array.concat
      (Array.to_list (Array.map (fun (_, tree) -> PT.leaves tree) t.segments))

let total_limbs t =
  Array.fold_left (fun acc (_, tree) -> acc + PT.total_limbs tree) 0 t.segments

let create ?pool ?domains ?(k = 1) moduli =
  let segments, findings = BG.factor_subsets_trees ?pool ?domains ~k moduli in
  { total = Array.length moduli; segments; findings }

(* A delta of at most this many fresh moduli runs all-to-all segment
   pruning, a larger one remainder trees: unpruned pairs cost one
   product-sized gcd each, which a bulk delta piles up. The
   benchmark's sweep and monthly workloads extend by 15-32 moduli,
   where all-to-all wins. *)
let all_to_all_max = 48

let delta_strategy nf = if nf <= all_to_all_max then "all_to_all" else "tree"

(* All-to-all delta: one gcd of segment root vs delta root prunes an
   entire untouched segment, and surviving pairs recurse to exact
   pairwise gcds — no remainder descents. Each job returns a pure hit
   list; the merge is serial. *)
let merge_all_to_all ~pool t tn acc =
  let nseg = Array.length t.segments in
  let job s =
    if s < nseg then All_to_all.cross_hits ~pool (snd t.segments.(s)) tn
    else All_to_all.pairwise_hits ~pool tn
  in
  Array.iteri
    (fun s hits ->
      let off = if s < nseg then fst t.segments.(s) else t.total in
      List.iter
        (fun (l, j, g) ->
          Divisor_acc.mul acc (off + l) g;
          Divisor_acc.mul acc (t.total + j) g)
        hits)
    (Pool.map ~pool job (Array.init (nseg + 1) Fun.id))

(* Remainder-tree delta, all jobs independent:
   [0, nseg)        delta product through old segment tree s;
   [nseg, 2*nseg)   segment-s root through the fresh tree;
   2*nseg           fresh root mod-square through the fresh tree
                    (the new-vs-new pass, as in factor_batch). *)
let merge_tree ~pool t tn acc =
  let pn = PT.root tn in
  let nseg = Array.length t.segments in
  let job i =
    if i < nseg then
      let off, tree = t.segments.(i) in
      (off, RT.remainders ~pool tree pn)
    else if i < 2 * nseg then
      (t.total, RT.remainders ~pool tn (PT.root (snd t.segments.(i - nseg))))
    else
      ( t.total,
        Array.mapi
          (fun l z -> BG.own_subset_component (PT.leaves tn).(l) z)
          (RT.remainders_mod_square ~pool tn pn) )
  in
  Array.iter
    (fun (off, rs) -> Array.iteri (fun l c -> Divisor_acc.mul acc (off + l) c) rs)
    (Pool.map ~pool job (Array.init ((2 * nseg) + 1) Fun.id))

let extend ?pool ?domains t fresh =
  let nf = Array.length fresh in
  if nf = 0 then t
  else if t.total = 0 then create ?pool ?domains fresh
  else begin
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    let tn = PT.build ~pool fresh in
    let t' =
      {
        total = t.total + nf;
        segments = Array.append t.segments [| (t.total, tn) |];
        findings = [];
      }
    in
    let corpus' = corpus t' in
    (* Old moduli start from their cached divisor: gcd (m, d_old * (P
       mod m)) is the full-recompute divisor (see Divisor_acc). *)
    let acc = Divisor_acc.create corpus' in
    List.iter (fun f -> Divisor_acc.mul acc f.BG.index f.BG.divisor) t.findings;
    (if nf <= all_to_all_max then merge_all_to_all else merge_tree)
      ~pool t tn acc;
    { t' with findings = BG.collect (Divisor_acc.divisors acc) corpus' }
  end

(* ------------------------------------------------------------------ *)
(* Checkpoint serialization                                            *)
(* ------------------------------------------------------------------ *)

let magic = "weakkeys-incremental/1"

let save oc t =
  Io.write_string oc magic;
  Io.write_int oc t.total;
  Io.write_int oc (Array.length t.segments);
  Array.iter
    (fun (off, tree) ->
      Io.write_int oc off;
      Io.write_int oc (PT.depth tree);
      for k = 0 to PT.depth tree - 1 do
        let lvl = PT.level tree k in
        Io.write_int oc (Array.length lvl);
        Array.iter (Io.write_nat oc) lvl
      done)
    t.segments;
  Io.write_int oc (List.length t.findings);
  List.iter
    (fun f ->
      Io.write_int oc f.BG.index;
      Io.write_nat oc f.BG.modulus;
      Io.write_nat oc f.BG.divisor)
    t.findings

let load ic =
  let m = Io.read_string ic in
  if not (String.equal m magic) then
    raise (Io.Corrupt "not an incremental-GCD checkpoint");
  (* Minimum encoded size of what each count counts: a leaf is one
     length-prefixed nat (4 bytes); a level its count plus one nat;
     a segment its offset, depth and one level; a finding its index
     and two nats. *)
  let total = Io.read_count ~min_bytes_each:4 ic in
  let nseg = Io.read_count ~min_bytes_each:16 ic in
  let segments = Array.make nseg (0, PT.build [| N.one |]) in
  let expected_off = ref 0 in
  for s = 0 to nseg - 1 do
    let off = Io.read_int ic in
    if off <> !expected_off then raise (Io.Corrupt "segment offsets disagree");
    let depth = Io.read_count ~min_bytes_each:8 ic in
    if depth = 0 then raise (Io.Corrupt "segment with no levels");
    let levels = Array.make depth [||] in
    for k = 0 to depth - 1 do
      let n = Io.read_count ~min_bytes_each:4 ic in
      let lvl = Array.make n N.zero in
      for i = 0 to n - 1 do
        lvl.(i) <- Io.read_nat ic
      done;
      levels.(k) <- lvl
    done;
    let tree =
      try PT.of_levels levels
      with Invalid_argument msg -> raise (Io.Corrupt msg)
    in
    expected_off := !expected_off + Array.length (PT.leaves tree);
    segments.(s) <- (off, tree)
  done;
  if !expected_off <> total then
    raise (Io.Corrupt "corpus size disagrees with segment leaves");
  let nf = Io.read_count ~min_bytes_each:12 ic in
  let findings = ref [] in
  for _ = 1 to nf do
    let index = Io.read_int ic in
    if index < 0 || index >= total then
      raise (Io.Corrupt "finding index out of corpus range");
    let modulus = Io.read_nat ic in
    let divisor = Io.read_nat ic in
    findings := { BG.index; modulus; divisor } :: !findings
  done;
  { total; segments; findings = List.rev !findings }
