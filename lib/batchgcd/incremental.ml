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

(* The initial tree is cut into segments of the largest power-of-two
   size that still leaves at least this many full ones (every leaf is
   its own segment below 32 moduli). The width is for [extend], whose
   delta runs one pool job per segment. *)
let min_segments = 16

let segment_size n =
  let rec grow s = if 2 * s * min_segments <= n then grow (2 * s) else s in
  grow 1

let create ?pool moduli =
  let n = Array.length moduli in
  let segments, findings =
    BG.factor_forest ?pool ~segment:(segment_size n) moduli
  in
  { total = n; segments; findings }

(* The delta, remainders only. New side: every segment root down the
   fresh tree, and the fresh root mod-square down it (the own
   component, as in the sweep). Filter: per fresh leaf f_j, the
   product of the segment roots' remainders is one contribution, and
   g_j = gcd (f_j, that product) marks the leaves sharing a prime
   with the old corpus. Old side: segment s descends
   B_s = prod_{j : g_j <> 1} gcd (g_j, root_s mod f_j), and only when
   B_s <> 1. Each factor is gcd (f_j, root_s), so a prime's exponent
   in B_s is its exponent in the fresh root capped, per leaf, at its
   exponent in root_s; that cap is at least any m | root_s's own, so
   gcd (m, B_s) = gcd (m, fresh root) prime by prime. Returns the
   fresh leaves' two contribution arrays, and per segment its leaves'
   contributions if it descended. *)
let merge_delta ~pool t tn =
  let fresh = PT.leaves tn in
  let nseg = Array.length t.segments in
  let job i =
    if i < nseg then RT.remainders ~pool tn (PT.root (snd t.segments.(i)))
    else
      Array.mapi
        (fun l z -> BG.own_subset_component fresh.(l) z)
        (RT.remainders_mod_square ~pool tn (PT.root tn))
  in
  let rs = Pool.map ~pool job (Array.init (nseg + 1) Fun.id) in
  let g =
    Pool.init ~pool (Array.length fresh) (fun j ->
        let f = fresh.(j) in
        let old = ref N.one in
        for s = 0 to nseg - 1 do
          old := N.rem (N.mul !old rs.(s).(j)) f
        done;
        (!old, N.gcd f !old))
  in
  let hits =
    List.filter
      (fun j -> not (N.is_one (snd g.(j))))
      (List.init (Array.length fresh) Fun.id)
  in
  let old_side s =
    let b =
      List.fold_left
        (fun b j -> N.mul b (N.gcd (snd g.(j)) rs.(s).(j)))
        N.one hits
    in
    if N.is_one b then None
    else Some (RT.remainders ~pool (snd t.segments.(s)) b)
  in
  ( [ Array.map fst g; rs.(nseg) ],
    if hits = [] then Array.make nseg None
    else Pool.map ~pool old_side (Array.init nseg Fun.id) )

(* Findings of the moduli at indexes [off ..]: each divisor merges the
   modulus's cached finding, if any, with its new contributions (see
   Divisor_acc). *)
let block_findings ~off moduli cached contributions =
  let acc = Divisor_acc.create moduli in
  List.iter (fun f -> Divisor_acc.mul acc (f.BG.index - off) f.BG.divisor) cached;
  List.iter (Array.iteri (Divisor_acc.mul acc)) contributions;
  List.map
    (fun f -> { f with BG.index = f.BG.index + off })
    (BG.collect (Divisor_acc.divisors acc) moduli)

(* Index-ordered findings split at index [stop]. *)
let split_below stop findings =
  let rec go acc = function
    | f :: rest when f.BG.index < stop -> go (f :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] findings

let extend ?pool t fresh =
  let nf = Array.length fresh in
  if nf = 0 then t
  else if t.total = 0 then create ?pool fresh
  else begin
    let pool = match pool with Some p -> p | None -> Pool.get () in
    let tn = PT.build ~pool fresh in
    let fresh_contributions, descended = merge_delta ~pool t tn in
    (* Only the fresh moduli and the leaves of segments that descended
       gain a contribution. An old modulus's divisor is
       gcd (m, d_old * (P mod m)), so every other cached finding
       stands as it is, and no other modulus needs a gcd. *)
    let rec old_findings s cached rev_acc =
      if s = Array.length t.segments then rev_acc
      else begin
        let off, tree = t.segments.(s) in
        let leaves = PT.leaves tree in
        let mine, later = split_below (off + Array.length leaves) cached in
        let here =
          match descended.(s) with
          | None -> mine
          | Some cs -> block_findings ~off leaves mine [ cs ]
        in
        old_findings (s + 1) later (List.rev_append here rev_acc)
      end
    in
    {
      total = t.total + nf;
      segments = Array.append t.segments [| (t.total, tn) |];
      findings =
        List.rev_append
          (old_findings 0 t.findings [])
          (block_findings ~off:t.total fresh [] fresh_contributions);
    }
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
