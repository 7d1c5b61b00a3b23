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

let create ?pool ?domains ?backend ?(k = 1) moduli =
  (* Validate the name through the registry, then seed the forest with
     that decomposition: ksubset keeps its k contiguous subset trees,
     tree is the k = 1 degenerate case, all_to_all sweeps one tree by
     node-pair pruning. Findings are equal whichever ran. *)
  let backend =
    match backend with
    | None -> Backend.ksubset.Backend.name
    | Some name -> (Backend.get name).Backend.name
  in
  if String.equal backend Backend.all_to_all.Backend.name then begin
    if Array.length moduli = 0 then
      { total = 0; segments = [||]; findings = [] }
    else begin
      let pool =
        match pool with Some p -> p | None -> Pool.get ?domains ()
      in
      let tree = PT.build ~pool moduli in
      {
        total = Array.length moduli;
        segments = [| (0, tree) |];
        findings = All_to_all.factor_tree ~pool tree;
      }
    end
  end
  else begin
    let k = if String.equal backend Backend.tree.Backend.name then 1 else k in
    let segments, findings = BG.factor_subsets_trees ?pool ?domains ~k moduli in
    { total = Array.length moduli; segments; findings }
  end

(* The all-to-all delta strategy: one gcd of segment root vs delta
   root prunes an entire untouched segment, and surviving pairs
   recurse to exact pairwise gcds — no remainder descents. The merge
   below folds those gcds into the cached divisors through the same
   gcd-product lemma the tree strategy leans on, so both strategies
   land on identical findings. *)
let extend_all_to_all ~pool t fresh =
  let nf = Array.length fresh in
  let tn = PT.build ~pool fresh in
  let nseg = Array.length t.segments in
  (* Jobs: the delta against every old segment, plus the delta's own
     pairwise sweep. Each returns pure hit lists; merging is serial. *)
  let job i =
    if i < nseg then All_to_all.cross_hits ~pool (snd t.segments.(i)) tn
    else All_to_all.pairwise_hits ~pool tn
  in
  let pieces = Pool.map ~pool job (Array.init (nseg + 1) (fun i -> i)) in
  let prior = Array.make t.total N.one in
  List.iter (fun f -> prior.(f.BG.index) <- f.BG.divisor) t.findings;
  let acc_old = Array.make t.total N.one in
  let acc_new = Array.make nf N.one in
  let mul_into acc i m g = acc.(i) <- N.rem (N.mul acc.(i) (N.rem g m)) m in
  Array.iteri
    (fun i hits ->
      if i < nseg then begin
        let off, tree = t.segments.(i) in
        let leaves = PT.leaves tree in
        List.iter
          (fun (l, j, g) ->
            mul_into acc_old (off + l) leaves.(l) g;
            mul_into acc_new j fresh.(j) g)
          hits
      end
      else
        List.iter
          (fun (l, j, g) ->
            mul_into acc_new l fresh.(l) g;
            mul_into acc_new j fresh.(j) g)
          hits)
    pieces;
  let divisors = Array.make (t.total + nf) N.one in
  Array.iter
    (fun (off, tree) ->
      Array.iteri
        (fun l m ->
          divisors.(off + l) <-
            N.gcd m (N.rem (N.mul prior.(off + l) acc_old.(off + l)) m))
        (PT.leaves tree))
    t.segments;
  Array.iteri (fun l n -> divisors.(t.total + l) <- N.gcd n acc_new.(l)) fresh;
  let segments = Array.append t.segments [| (t.total, tn) |] in
  let t' = { total = t.total + nf; segments; findings = [] } in
  { t' with findings = BG.collect divisors (corpus t') }

let extend ?pool ?domains ?backend t fresh =
  let nf = Array.length fresh in
  let backend =
    match backend with
    | None -> Backend.tree.Backend.name
    | Some name ->
      let b = Backend.get name in
      if not b.Backend.caps.Backend.incremental then
        invalid_arg
          (Printf.sprintf
             "Batchgcd.Incremental.extend: `%s` is not a delta strategy" name);
      b.Backend.name
  in
  if nf = 0 then t
  else if t.total = 0 then create ?pool ?domains ~backend ~k:1 fresh
  else if String.equal backend Backend.all_to_all.Backend.name then begin
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    extend_all_to_all ~pool t fresh
  end
  else begin
    let pool =
      match pool with Some p -> p | None -> Pool.get ?domains ()
    in
    let tn = PT.build ~pool fresh in
    let pn = PT.root tn in
    (* The fresh tree takes a plain descent from every new-vs-old job,
       so its node tables must be published before the fan-out. Each
       old segment tree is touched by exactly one job and fills its
       node tables lazily on that worker (single-writer). The fresh
       tree's own mod-square job divides directly and reads no
       table. *)
    PT.precompute ~pool ~squares:false tn;
    let nseg = Array.length t.segments in
    (* Jobs, all independent:
       [0, nseg)        delta product through old segment tree s;
       [nseg, 2*nseg)   segment-s root through the fresh tree;
       2*nseg           fresh root mod-square through the fresh tree
                        (the new-vs-new pass, as in factor_batch). *)
    let job i =
      if i < nseg then (i, RT.remainders ~pool (snd t.segments.(i)) pn)
      else if i < 2 * nseg then
        (i, RT.remainders ~pool tn (PT.root (snd t.segments.(i - nseg))))
      else
        ( i,
          Array.mapi
            (fun l z -> BG.own_subset_component (PT.leaves tn).(l) z)
            (RT.remainders_mod_square ~pool tn pn) )
    in
    let pieces = Pool.map ~pool job (Array.init ((2 * nseg) + 1) (fun i -> i)) in
    (* Old moduli: gcd (m, d_old * (P mod m)) — exactly the divisor a
       full recompute over the union yields (see the .mli lemma). *)
    let prior = Array.make t.total N.one in
    List.iter (fun f -> prior.(f.BG.index) <- f.BG.divisor) t.findings;
    let divisors = Array.make (t.total + nf) N.one in
    let acc_new = Array.make nf N.one in
    Array.iter
      (fun (i, rs) ->
        if i < nseg then begin
          let off, tree = t.segments.(i) in
          let leaves = PT.leaves tree in
          Array.iteri
            (fun l c ->
              let m = leaves.(l) in
              divisors.(off + l) <- N.gcd m (N.rem (N.mul prior.(off + l) c) m))
            rs
        end
        else
          Array.iteri
            (fun l c ->
              let n = fresh.(l) in
              acc_new.(l) <- N.rem (N.mul acc_new.(l) (N.rem c n)) n)
            rs)
      pieces;
    Array.iteri (fun l n -> divisors.(t.total + l) <- N.gcd n acc_new.(l)) fresh;
    let segments = Array.append t.segments [| (t.total, tn) |] in
    let t' = { total = t.total + nf; segments; findings = [] } in
    { t' with findings = BG.collect divisors (corpus t') }
  end

let factor_delta ?pool ?domains ~old_tree ~old_findings fresh =
  let t =
    {
      total = Array.length (PT.leaves old_tree);
      segments = [| (0, old_tree) |];
      findings = old_findings;
    }
  in
  (extend ?pool ?domains t fresh).findings

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
