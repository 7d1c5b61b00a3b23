(* Arbitrary-precision natural numbers over base-2^31 limbs.

   Representation invariant: a value is an [int array] of limbs in
   little-endian order, each limb in [0, 2^31), with no trailing zero
   limb. Zero is the empty array. The base is chosen so that a limb
   product plus two limb-sized carries stays below 2^62 and therefore
   fits in OCaml's native 63-bit [int] without overflow:
     mask^2 + 2*mask = 2^62 - 1. *)

type t = int array

let limb_bits = 31
let base = 1 lsl limb_bits
let mask = base - 1

(* Dispatch cutoffs, in limbs (DESIGN.md § Bignum kernels). They are
   fixed: tests and benches reach each rung directly through [Kernel]
   rather than moving the ladder. The multiply cutoffs gate on the
   smaller operand, the Burnikel-Ziegler one on the divisor, the
   Lehmer one on the smaller gcd operand. *)
let karatsuba_cutoff = 24
let toom3_cutoff = 96
let ntt_cutoff = 2048
let bz_cutoff = 40
let parallel_mul_cutoff = 512
let lehmer_cutoff = 8

let zero : t = [||]
let is_zero (a : t) = Array.length a = 0

(* Trim trailing zero limbs, reusing the array when already normal. *)
let norm (a : int array) : t =
  let n = Array.length a in
  let rec top i = if i > 0 && a.(i - 1) = 0 then top (i - 1) else i in
  let l = top n in
  if l = n then a else Array.sub a 0 l

(* A non-negative native int has at most 62 value bits, i.e. exactly
   two limbs; [n lsr limb_bits <= mask] always holds. *)
let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative"
  else if n = 0 then zero
  else if n < base then [| n |]
  else [| n land mask; n lsr limb_bits |]

let one = of_int 1
let two = of_int 2

let to_int (a : t) =
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl limb_bits))
  | _ -> None (* three normalized limbs exceed 62 bits *)

let to_int_exn a =
  match to_int a with
  | Some i -> i
  | None -> failwith "Nat.to_int_exn: does not fit in int"

let of_limbs limbs =
  Array.iter
    (fun l ->
      if l < 0 || l > mask then invalid_arg "Nat.of_limbs: limb out of range")
    limbs;
  norm (Array.copy limbs)

let to_limbs (a : t) = Array.copy a

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0
let is_one (a : t) = Array.length a = 1 && a.(0) = 1
let is_even (a : t) = Array.length a = 0 || a.(0) land 1 = 0
let is_odd a = not (is_even a)
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash (a : t) =
  Array.fold_left (fun acc l -> (acc * 1000003) lxor l) 5381 a

(* ------------------------------------------------------------------ *)
(* Bit-level operations                                                *)
(* ------------------------------------------------------------------ *)

let bits_of_limb l =
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let num_bits (a : t) =
  let n = Array.length a in
  if n = 0 then 0 else ((n - 1) * limb_bits) + bits_of_limb a.(n - 1)

let size_limbs (a : t) = Array.length a

let testbit (a : t) i =
  if i < 0 then invalid_arg "Nat.testbit: negative index"
  else
    let limb = i / limb_bits and off = i mod limb_bits in
    limb < Array.length a && (a.(limb) lsr off) land 1 = 1

let shift_left (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift"
  else if is_zero a || k = 0 then a
  else
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr limb_bits
      done;
      r.(la + limbs) <- !carry
    end;
    norm r

let shift_right (a : t) k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift"
  else if is_zero a || k = 0 then a
  else
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (a.(i + limbs + 1) lsl (limb_bits - bits)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      norm r

(* ------------------------------------------------------------------ *)
(* Addition and subtraction                                            *)
(* ------------------------------------------------------------------ *)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else
    let lmax = Stdlib.max la lb in
    let r = Array.make (lmax + 1) 0 in
    let carry = ref 0 in
    for i = 0 to lmax - 1 do
      let x = if i < la then a.(i) else 0
      and y = if i < lb then b.(i) else 0 in
      let s = x + y + !carry in
      r.(i) <- s land mask;
      carry := s lsr limb_bits
    done;
    r.(lmax) <- !carry;
    norm r

let sub (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if lb = 0 then a
  else if compare a b < 0 then invalid_arg "Nat.sub: negative result"
  else
    let r = Array.make la 0 in
    let borrow = ref 0 in
    for i = 0 to la - 1 do
      let y = if i < lb then b.(i) else 0 in
      let d = a.(i) - y - !borrow in
      if d < 0 then begin
        r.(i) <- d + base;
        borrow := 1
      end
      else begin
        r.(i) <- d;
        borrow := 0
      end
    done;
    norm r

let add_int a k =
  if k < 0 then invalid_arg "Nat.add_int: negative"
  else if k = 0 then a
  else add a (of_int k)

(* ------------------------------------------------------------------ *)
(* Multiplication                                                      *)
(* ------------------------------------------------------------------ *)

(* Schoolbook product of [a] and [b] into a fresh array.
   Inner-loop bound: r + a_i*b_j + carry <= mask + mask^2 + mask
   = 2^62 - 1, which fits in a native int. *)
let mul_school (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let t = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    end
  done;
  norm r

(* Split [a] at limb [k]: low part [a mod base^k], high part [a / base^k]. *)
let split_at (a : t) k =
  let la = Array.length a in
  if k >= la then (a, zero)
  else (norm (Array.sub a 0 k), norm (Array.sub a k (la - k)))

let shift_limbs (a : t) k =
  if is_zero a || k = 0 then a
  else
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r

(* r <- r + x * base^off, in place. The caller guarantees the final
   accumulated value fits in r, so the trailing carry cannot run off
   the end of the buffer. *)
let add_into (r : int array) (x : t) off =
  let lx = Array.length x in
  let carry = ref 0 in
  for i = 0 to lx - 1 do
    let t = r.(off + i) + x.(i) + !carry in
    r.(off + i) <- t land mask;
    carry := t lsr limb_bits
  done;
  let i = ref (off + lx) in
  while !carry <> 0 do
    let t = r.(!i) + !carry in
    r.(!i) <- t land mask;
    carry := t lsr limb_bits;
    incr i
  done

(* Fan one node's independent sub-products (Karatsuba's 3, Toom-3's 5)
   onto the process-wide domain pool. Only multiplies whose smaller
   operand reaches [parallel_mul_cutoff] pay the dispatch cost, and
   the pool's DLS nesting guard runs re-entrant calls inline, so at
   most one level of any multiply tree fans out: the giant serial
   nodes at the top of a product tree finally occupy every domain,
   while level-parallel tree code and deeper recursion stay sequential
   within their worker. *)
let run_products wide (fs : (unit -> t) array) : t array =
  if wide then Parallel.Pool.map ~chunk:1 (fun f -> f ()) fs
  else Array.map (fun f -> f ()) fs

(* Exact single-limb division by 3, used only by Toom-3 interpolation
   where divisibility is guaranteed; asserts exactness. *)
let div3_exact (a : t) : t =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / 3;
    r := cur mod 3
  done;
  assert (!r = 0);
  norm q

(* Signed values for Toom-3 evaluation/interpolation: a pair of a sign
   flag and a magnitude, normalised so zero is always (false, zero).
   Only the interpolation intermediates can go negative; every final
   coefficient of the product polynomial is non-negative. *)
let s_norm ((neg, m) as s) = if neg && is_zero m then (false, m) else s
let s_pos m = (false, m)

let s_add (na, a) (nb, b) =
  if na = nb then (na, add a b)
  else if compare a b >= 0 then s_norm (na, sub a b)
  else (nb, sub b a)

let s_sub a (nb, b) = s_add a (s_norm (not nb, b))
let s_half (n, m) = (n, shift_right m 1)
let s_double (n, m) = (n, shift_left m 1)
let s_third (n, m) = (n, div3_exact m)

let s_nonneg (neg, m) =
  assert ((not neg) || is_zero m);
  m

(* Evaluate the split operand a0 + a1*x + a2*x^2 at x = 1, -1, -2
   (Bodrato's evaluation points; 0 and infinity are a0 and a2). *)
let toom3_eval a0 a1 a2 =
  let t02 = add a0 a2 in
  let p1 = add t02 a1 in
  let m1 = s_sub (s_pos t02) (s_pos a1) in
  let m2 = s_sub (s_double (s_add m1 (s_pos a2))) (s_pos a0) in
  (p1, m1, m2)

(* Bodrato's interpolation sequence: recover c1..c3 of the degree-4
   product polynomial from the five pointwise products. The divisions
   (one halving twice, one exact division by 3) are exact, and c0 = z0,
   c4 = zinf need no work. *)
let toom3_interp ~z0 ~z1 ~zm1 ~zm2 ~zinf =
  let t3 = s_third (s_sub zm2 (s_pos z1)) in
  let t1 = s_half (s_sub (s_pos z1) zm1) in
  let t2 = s_sub zm1 (s_pos z0) in
  let c3 = s_add (s_half (s_sub t2 t3)) (s_pos (shift_left zinf 1)) in
  let c2 = s_sub (s_add t2 t1) (s_pos zinf) in
  let c1 = s_sub t1 c3 in
  (s_nonneg c1, s_nonneg c2, s_nonneg c3)

(* Accumulate the five coefficients at limb offsets 0, k, .., 4k. Each
   c_i * base^(i*k) is at most the full product, so no carry escapes
   the [lr] result limbs. *)
let toom3_assemble ~lr ~k z0 c1 c2 c3 zinf =
  let r = Array.make lr 0 in
  add_into r z0 0;
  add_into r c1 k;
  add_into r c2 (2 * k);
  add_into r c3 (3 * k);
  add_into r zinf (4 * k);
  norm r

(* ------------------------------------------------------------------ *)
(* Number-theoretic transform tier                                     *)
(* ------------------------------------------------------------------ *)

(* Two-prime CRT NTT over native ints (DESIGN.md § Bignum kernels for
   the full rationale). The operands are re-split from 31-bit limbs
   into 15-bit pieces, convolved modulo two NTT-friendly primes just
   under 2^31, and the true coefficients recovered by CRT: with pieces
   below 2^15 and at most 2^26 of them, every coefficient is below
   2^56 < p1*p2 ~ 2^61.7, and every intermediate product (piece*piece,
   twiddle*value, p1*CRT-lift) stays under 2^62, inside the native
   63-bit int — the same headroom argument the limb base rests on. *)
let ntt_piece_bits = 15
let ntt_piece_mask = (1 lsl ntt_piece_bits) - 1

(* p1 = 27*2^26 + 1 < p2 = 15*2^27 + 1, both with 2-adicity >= 26, so
   transforms up to 2^26 points (~1 Gbit products) are supported; the
   ordering p1 < p2 keeps the CRT difference c2 - c1 within one
   conditional add of [0, p2). The generators were verified against
   the factorizations of p-1. *)
let ntt_p1 = 1_811_939_329
let ntt_g1 = 13
let ntt_p2 = 2_013_265_921
let ntt_g2 = 31
let ntt_max_log = 26
let ntt_p1_inv_p2 = 10 (* p1^-1 mod p2, for the CRT lift *)

let pow_mod_int b e p =
  let r = ref 1 and b = ref (b mod p) and e = ref e in
  while !e > 0 do
    if !e land 1 = 1 then r := !r * !b mod p;
    b := !b * !b mod p;
    e := !e asr 1
  done;
  !r

(* Per-stage twiddle tables: stage s (butterfly half-width 2^s) uses
   the canonical root of order 2^(s+1), w = g^((p-1)/2^(s+1)), with a
   Shoup companion floor(w * 2^31 / p) per entry so the butterfly
   multiply needs no division: q = (v*w') >> 31, r = v*w - q*p is in
   [0, 2p). Tables are rebuilt per multiplication — the build is O(n)
   against the transform's O(n log n), and owning the arrays locally
   keeps the kernel free of shared mutable state, so concurrent
   multiplies from pool workers need no locking and stay visible to
   the pool-capture race lint as pure. *)
let ntt_stage_tables p g ~inverse lg =
  Array.init lg (fun s ->
      let h = 1 lsl s in
      let w0 = pow_mod_int g ((p - 1) / (2 * h)) p in
      let w0 = if inverse then pow_mod_int w0 (p - 2) p else w0 in
      let tw = Array.make h 1 and ts = Array.make h 0 in
      let w = ref 1 in
      for k = 0 to h - 1 do
        tw.(k) <- !w;
        ts.(k) <- (!w lsl limb_bits) / p;
        w := !w * w0 mod p
      done;
      (tw, ts))

let ntt_bitrev (a : int array) =
  let n = Array.length a in
  let j = ref 0 in
  for i = 1 to n - 1 do
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit;
    if i < !j then begin
      let t = a.(i) in
      a.(i) <- a.(!j);
      a.(!j) <- t
    end
  done

(* In-place iterative decimation-in-time transform. With the inverse
   stage tables this computes n times the inverse transform; the
   caller folds in n^-1 mod p. The butterfly loop is the single
   hottest path of an NTT multiply (n/2 * log n iterations), so it
   uses unsafe accesses: every index is base + k (+ h) with
   base + 2h <= n by the loop bounds, and k < h = length of both
   twiddle tables by construction. *)
let ntt_pass p (stages : (int array * int array) array) (a : int array) =
  let n = Array.length a in
  ntt_bitrev a;
  let s = ref 0 in
  let h = ref 1 in
  while !h < n do
    let tw, ts = stages.(!s) in
    let h' = !h in
    let step = 2 * h' in
    let base = ref 0 in
    while !base < n do
      let b = !base in
      for k = 0 to h' - 1 do
        let j0 = b + k in
        let j1 = j0 + h' in
        let u = Array.unsafe_get a j0 in
        let v = Array.unsafe_get a j1 in
        let q = (v * Array.unsafe_get ts k) lsr limb_bits in
        let m = (v * Array.unsafe_get tw k) - (q * p) in
        (* Branchless reductions: Shoup leaves m in [0, 2p); subtract
           p and add it back under the sign mask (asr 62 is all-ones
           exactly when negative). Data-dependent branches here
           mispredict ~50% on transform-domain values, and the three
           of them would dominate the butterfly. *)
        let m = m - p in
        let m = m + (p land (m asr 62)) in
        let x = u + m - p in
        Array.unsafe_set a j0 (x + (p land (x asr 62)));
        let y = u - m in
        Array.unsafe_set a j1 (y + (p land (y asr 62)))
      done;
      base := b + step
    done;
    incr s;
    h := step
  done

(* Re-split the limb array into 15-bit pieces, zero-padded to the
   transform length. *)
let ntt_pieces (a : t) n =
  let la = Array.length a in
  let np = (num_bits a + ntt_piece_bits - 1) / ntt_piece_bits in
  let r = Array.make n 0 in
  for j = 0 to np - 1 do
    let bit = j * ntt_piece_bits in
    let limb = bit / limb_bits and off = bit mod limb_bits in
    let lo = a.(limb) lsr off in
    let hi =
      if off > limb_bits - ntt_piece_bits && limb + 1 < la then
        a.(limb + 1) lsl (limb_bits - off)
      else 0
    in
    r.(j) <- (lo lor hi) land ntt_piece_mask
  done;
  r

(* One prime's cyclic convolution of the piece vectors: forward
   transforms, pointwise product (or square), inverse transform,
   n^-1 scaling. Self-contained per prime, so the two primes run as
   independent pool jobs on wide operands. *)
let ntt_convolve p g n lg (a : t) (b : t option) : int array =
  let fwd = ntt_stage_tables p g ~inverse:false lg in
  let xa = ntt_pieces a n in
  ntt_pass p fwd xa;
  (match b with
  | Some b ->
    let xb = ntt_pieces b n in
    ntt_pass p fwd xb;
    for i = 0 to n - 1 do
      xa.(i) <- xa.(i) * xb.(i) mod p
    done
  | None ->
    for i = 0 to n - 1 do
      xa.(i) <- xa.(i) * xa.(i) mod p
    done);
  ntt_pass p (ntt_stage_tables p g ~inverse:true lg) xa;
  let ninv = pow_mod_int n (p - 2) p in
  for i = 0 to n - 1 do
    xa.(i) <- xa.(i) * ninv mod p
  done;
  xa

(* Whether a product of [l] total limbs fits the supported transform
   sizes: ceil(31*l / 15) + 2 pieces, capped at 2^26 by the primes'
   2-adicity. Beyond it the dispatcher stays on Toom-3. *)
let ntt_fits l = (l * limb_bits / ntt_piece_bits) + 2 <= 1 lsl ntt_max_log

let mul_ntt_gen (a : t) (b : t option) : t =
  let la = Array.length a in
  let lb = match b with Some b -> Array.length b | None -> la in
  let pa = (num_bits a + ntt_piece_bits - 1) / ntt_piece_bits in
  let pb =
    match b with
    | Some b -> (num_bits b + ntt_piece_bits - 1) / ntt_piece_bits
    | None -> pa
  in
  let need = pa + pb in
  let lg = ref 0 in
  while 1 lsl !lg < need do
    incr lg
  done;
  let lg = !lg in
  assert (lg <= ntt_max_log);
  let n = 1 lsl lg in
  let jobs =
    [| (fun () -> ntt_convolve ntt_p1 ntt_g1 n lg a b);
       (fun () -> ntt_convolve ntt_p2 ntt_g2 n lg a b) |]
  in
  let cs =
    if Stdlib.min la lb >= parallel_mul_cutoff then
      Parallel.Pool.map ~chunk:1 (fun f -> f ()) jobs
    else Array.map (fun f -> f ()) jobs
  in
  let c1 = cs.(0) and c2 = cs.(1) in
  (* CRT lift per coefficient, then carry-propagate the base-2^15
     digit stream and re-pack it into 31-bit limbs. c < p1*p2 ~ 2^61.7
     and carry <= c >> 15, so the running sum stays under 2^62. *)
  let lr = la + lb in
  let out = Array.make lr 0 in
  let carry = ref 0 in
  let acc = ref 0 and accbits = ref 0 and oi = ref 0 in
  let push_digit d =
    acc := !acc lor (d lsl !accbits);
    accbits := !accbits + ntt_piece_bits;
    if !accbits >= limb_bits then begin
      if !oi < lr then out.(!oi) <- !acc land mask;
      incr oi;
      acc := !acc lsr limb_bits;
      accbits := !accbits - limb_bits
    end
  in
  for j = 0 to n - 1 do
    let d = c2.(j) - c1.(j) in
    let d = if d < 0 then d + ntt_p2 else d in
    let c = c1.(j) + (ntt_p1 * (d * ntt_p1_inv_p2 mod ntt_p2)) in
    let s = c + !carry in
    push_digit (s land ntt_piece_mask);
    carry := s asr ntt_piece_bits
  done;
  while !carry <> 0 do
    push_digit (!carry land ntt_piece_mask);
    carry := !carry asr ntt_piece_bits
  done;
  if !accbits > 0 && !oi < lr then out.(!oi) <- !acc land mask;
  norm out

let mul_ntt (a : t) (b : t) : t = mul_ntt_gen a (Some b)
let sqr_ntt (a : t) : t = mul_ntt_gen a None

let rec mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let lmin = Stdlib.min la lb and lmax = Stdlib.max la lb in
    if lmin < karatsuba_cutoff then mul_school a b
    else if lmin >= ntt_cutoff && 2 * lmin > lmax && ntt_fits (la + lb)
    then mul_ntt a b
    else if lmin >= toom3_cutoff && 2 * lmin > lmax then mul_toom3 a b
    else mul_karatsuba a b
  end

and mul_karatsuba (a : t) (b : t) : t =
  (* Karatsuba: split both operands at half the longer length. The
     middle product uses (a0+a1)(b0+b1) - z0 - z2, which never goes
     negative over the naturals. The three partial products are
     accumulated into a single result buffer; each partial sum is at
     most a*b, so no carry escapes the la+lb limbs. *)
  let la = Array.length a and lb = Array.length b in
  let k = (Stdlib.max la lb + 1) / 2 in
  let a0, a1 = split_at a k and b0, b1 = split_at b k in
  let zs =
    run_products
      (Stdlib.min la lb >= parallel_mul_cutoff)
      [| (fun () -> mul a0 b0);
         (fun () -> mul a1 b1);
         (fun () -> mul (add a0 a1) (add b0 b1)) |]
  in
  let z0 = zs.(0) and z2 = zs.(1) in
  let z1 = sub zs.(2) (add z0 z2) in
  let r = Array.make (la + lb) 0 in
  add_into r z0 0;
  add_into r z1 k;
  add_into r z2 (2 * k);
  norm r

and mul_toom3 (a : t) (b : t) : t =
  (* Toom-Cook-3: split each operand into three k-limb pieces, evaluate
     both polynomials at {0, 1, -1, -2, inf}, multiply pointwise (five
     products of ~n/3 limbs instead of Karatsuba's three of ~n/2), and
     interpolate. Only reached for near-balanced operands: the mul
     dispatcher requires 2*min > max, so every piece is nonempty-ish
     and the O(n^1.465) exponent actually pays off. *)
  let la = Array.length a and lb = Array.length b in
  let k = (Stdlib.max la lb + 2) / 3 in
  let a0, ahi = split_at a k in
  let a1, a2 = split_at ahi k in
  let b0, bhi = split_at b k in
  let b1, b2 = split_at bhi k in
  let pa1, (na1, ma1), (na2, ma2) = toom3_eval a0 a1 a2 in
  let pb1, (nb1, mb1), (nb2, mb2) = toom3_eval b0 b1 b2 in
  let zs =
    run_products
      (Stdlib.min la lb >= parallel_mul_cutoff)
      [| (fun () -> mul a0 b0);
         (fun () -> mul pa1 pb1);
         (fun () -> mul ma1 mb1);
         (fun () -> mul ma2 mb2);
         (fun () -> mul a2 b2) |]
  in
  let z0 = zs.(0) and zinf = zs.(4) in
  let zm1 = s_norm (na1 <> nb1, zs.(2)) in
  let zm2 = s_norm (na2 <> nb2, zs.(3)) in
  let c1, c2, c3 = toom3_interp ~z0 ~z1:zs.(1) ~zm1 ~zm2 ~zinf in
  toom3_assemble ~lr:(la + lb) ~k z0 c1 c2 c3 zinf

(* Schoolbook squaring: accumulate each cross product a_i*a_j (j > i)
   once, double the whole accumulator with a one-bit shift, then add
   the diagonal a_i^2 terms. Doubling the limb products directly would
   overflow the native int (2*mask^2 > 2^62), hence the separate
   doubling pass over sub-base limbs. Saves close to half the inner
   multiplies of mul_school. *)
let sqr_school (a : t) : t =
  let la = Array.length a in
  let r = Array.make (2 * la) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = i + 1 to la - 1 do
        let t = r.(i + j) + (ai * a.(j)) + !carry in
        r.(i + j) <- t land mask;
        carry := t lsr limb_bits
      done;
      r.(i + la) <- !carry
    end
  done;
  let carry = ref 0 in
  for i = 0 to (2 * la) - 1 do
    let t = (r.(i) lsl 1) lor !carry in
    r.(i) <- t land mask;
    carry := t lsr limb_bits
  done;
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let t0 = r.(2 * i) + (a.(i) * a.(i)) + !carry in
    r.(2 * i) <- t0 land mask;
    let t1 = r.((2 * i) + 1) + (t0 lsr limb_bits) in
    r.((2 * i) + 1) <- t1 land mask;
    carry := t1 lsr limb_bits
  done;
  norm r

let rec sqr (a : t) : t =
  let la = Array.length a in
  if la = 0 then zero
  else if la < karatsuba_cutoff then sqr_school a
  else if la >= ntt_cutoff && ntt_fits (2 * la) then sqr_ntt a
  else if la >= toom3_cutoff then sqr_toom3 a
  else sqr_karatsuba a

and sqr_karatsuba (a : t) : t =
  (* Karatsuba squaring: the middle term 2*a0*a1 is recovered as
     (a0+a1)^2 - a0^2 - a1^2, so all three recursive products are
     themselves squarings. *)
  let la = Array.length a in
  let k = (la + 1) / 2 in
  let a0, a1 = split_at a k in
  let zs =
    run_products
      (la >= parallel_mul_cutoff)
      [| (fun () -> sqr a0);
         (fun () -> sqr a1);
         (fun () -> sqr (add a0 a1)) |]
  in
  let z0 = zs.(0) and z2 = zs.(1) in
  let z1 = sub zs.(2) (add z0 z2) in
  let r = Array.make (2 * la) 0 in
  add_into r z0 0;
  add_into r z1 k;
  add_into r z2 (2 * k);
  norm r

and sqr_toom3 (a : t) : t =
  (* Toom-3 squaring: signs vanish under squaring ((-m)^2 = m^2), so
     all five pointwise products are squarings of the evaluation
     magnitudes and the interpolation inputs are all non-negative. *)
  let la = Array.length a in
  let k = (la + 2) / 3 in
  let a0, ahi = split_at a k in
  let a1, a2 = split_at ahi k in
  let p1, (_, m1), (_, m2) = toom3_eval a0 a1 a2 in
  let zs =
    run_products
      (la >= parallel_mul_cutoff)
      [| (fun () -> sqr a0);
         (fun () -> sqr p1);
         (fun () -> sqr m1);
         (fun () -> sqr m2);
         (fun () -> sqr a2) |]
  in
  let z0 = zs.(0) and zinf = zs.(4) in
  let c1, c2, c3 =
    toom3_interp ~z0 ~z1:zs.(1) ~zm1:(s_pos zs.(2)) ~zm2:(s_pos zs.(3)) ~zinf
  in
  toom3_assemble ~lr:(2 * la) ~k z0 c1 c2 c3 zinf

let mul_int (a : t) k =
  if k < 0 then invalid_arg "Nat.mul_int: negative"
  else if k = 0 || is_zero a then zero
  else if k = 1 then a
  else if k <= mask then begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let t = (a.(i) * k) + !carry in
      r.(i) <- t land mask;
      carry := t lsr limb_bits
    done;
    r.(la) <- !carry land mask;
    r.(la + 1) <- !carry lsr limb_bits;
    norm r
  end
  else mul a (of_int k)

(* ------------------------------------------------------------------ *)
(* Division: single-limb, Knuth Algorithm D, Burnikel-Ziegler          *)
(* ------------------------------------------------------------------ *)

let divmod_int (a : t) d =
  if d <= 0 then invalid_arg "Nat.divmod_int: divisor must be positive"
  else if d > mask then
    invalid_arg "Nat.divmod_int: divisor exceeds one limb"
  else begin
    let la = Array.length a in
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      (* !r < d <= mask, so the two-limb numerator fits in 62 bits. *)
      let cur = (!r lsl limb_bits) lor a.(i) in
      q.(i) <- cur / d;
      r := cur mod d
    done;
    (norm q, !r)
  end

(* Remainder only: the quotient limbs of [divmod_int] are never
   allocated. *)
let mod_int (a : t) d =
  if d <= 0 then invalid_arg "Nat.mod_int: divisor must be positive"
  else if d > mask then
    invalid_arg "Nat.mod_int: divisor exceeds one limb"
  else begin
    let r = ref 0 in
    for i = Array.length a - 1 downto 0 do
      r := ((!r lsl limb_bits) lor a.(i)) mod d
    done;
    !r
  end

(* Knuth Algorithm D (TAOCP 4.3.1). Requires len b >= 2; the caller
   handles single-limb divisors. When [want_q] is false the quotient
   array is neither allocated nor written, so the remainder-only hot
   path of the remainder-tree descent skips materialising quotients
   entirely. *)
let knuth_core ~want_q (a : t) (b : t) : t option * t =
  let n = Array.length b in
  (* Normalize so the divisor's top limb has its high bit set. *)
  let s = limb_bits - bits_of_limb b.(n - 1) in
  let v = shift_left b s in
  let la = Array.length a in
  (* Limb length of [a lsl s], without materialising it. *)
  let lu = if la = 0 then 0 else (num_bits a + s + limb_bits - 1) / limb_bits in
  let m = lu - n in
  if m < 0 then ((if want_q then Some zero else None), a)
  else begin
    (* Shift the dividend straight into the working buffer (with one
       extra high limb), instead of shift_left followed by a copy. *)
    let u = Array.make (lu + 1) 0 in
    if s = 0 then Array.blit a 0 u 0 la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let x = (a.(i) lsl s) lor !carry in
        u.(i) <- x land mask;
        carry := x lsr limb_bits
      done;
      u.(la) <- !carry
    end;
    let q = if want_q then Array.make (m + 1) 0 else [||] in
    let vtop = v.(n - 1) and vsnd = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      if !qhat > mask then begin
        qhat := mask;
        rhat := num - (mask * vtop)
      end;
      let continue = ref true in
      while
        !continue && !rhat <= mask
        && !qhat * vsnd > (!rhat lsl limb_bits) lor u.(j + n - 2)
      do
        decr qhat;
        rhat := !rhat + vtop;
        if !rhat > mask then continue := false
      done;
      (* Multiply-and-subtract qhat * v from u[j .. j+n]. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add v back once. *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s2 = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s2 land mask;
          c := s2 lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land mask
      end
      else u.(j + n) <- d;
      if want_q then q.(j) <- !qhat
    done;
    let r = norm (Array.sub u 0 n) in
    ((if want_q then Some (norm q) else None), shift_right r s)
  end

let divmod_knuth (a : t) (b : t) : t * t =
  match knuth_core ~want_q:true a b with
  | Some q, r -> (q, r)
  | None, _ -> assert false

let rem_knuth (a : t) (b : t) : t = snd (knuth_core ~want_q:false a b)

(* Burnikel-Ziegler style recursive division, after Modern Computer
   Arithmetic, Algorithm 1.8 (RecursiveDivRem). [recursive_divrem a b]
   requires b normalized (top bit of top limb set), len a - len b = m
   with m <= len b, and a < b * base^m. Falls back to Knuth D below the
   cutoff. *)
let rec recursive_divrem (a : t) (b : t) : t * t =
  let n = Array.length b in
  let m = Array.length a - n in
  if m <= 0 then
    if compare a b < 0 then (zero, a) else divmod_knuth a b
  else if m < bz_cutoff then divmod_knuth a b
  else begin
    let k = m / 2 in
    let b0, b1 = split_at b k in
    (* Step 1: divide the high part of [a] by the high half of [b]. *)
    let alo2k, ahi = split_at a (2 * k) in
    let q1, r1 = unbalanced_divrem ahi b1 in
    (* A' = r1 * base^2k + alo2k - q1 * b0 * base^k, with corrections
       applied before subtracting so we stay in the naturals. *)
    let t = ref (add (shift_limbs r1 (2 * k)) alo2k) in
    let s = ref (shift_limbs (mul q1 b0) k) in
    let q1 = ref q1 in
    while compare !t !s < 0 do
      q1 := sub !q1 one;
      t := add !t (shift_limbs b k)
    done;
    let a' = sub !t !s in
    (* Step 2: same again one level down. *)
    let alok, ahi' = split_at a' k in
    let q0, r0 = unbalanced_divrem ahi' b1 in
    let t2 = ref (add (shift_limbs r0 k) alok) in
    s := mul q0 b0;
    let q0 = ref q0 in
    while compare !t2 !s < 0 do
      q0 := sub !q0 one;
      t2 := add !t2 b
    done;
    let r = sub !t2 !s in
    (add (shift_limbs !q1 k) !q0, r)
  end

(* Handle len a - len b > len b by peeling quotient blocks of len b
   limbs from the top (MCA 1.4.4, UnbalancedDivision). *)
and unbalanced_divrem (a : t) (b : t) : t * t =
  let n = Array.length b in
  let m = Array.length a - n in
  if m <= n then recursive_divrem a b
  else begin
    let alo, ahi = split_at a (m - n) in
    (* ahi has 2n limbs: one block of quotient. *)
    let qhi, rhi = recursive_divrem ahi b in
    let qlo, r = unbalanced_divrem (norm (add (shift_limbs rhi (m - n)) alo)) b in
    (add (shift_limbs qhi (m - n)) qlo, r)
  end

let rec divmod (a : t) (b : t) : t * t =
  let n = Array.length b in
  if n = 0 then raise Division_by_zero
  else if n = 1 then
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  else if compare a b < 0 then (zero, a)
  else if n < bz_cutoff then divmod_knuth a b
  else begin
    (* Normalize for the recursive algorithm, then shift back. *)
    let s = limb_bits - bits_of_limb b.(n - 1) in
    let a' = shift_left a s and b' = shift_left b s in
    let m = Array.length a' - n in
    let q, r =
      if m >= bz_cutoff && 2 * m < n then short_divrem a' b' m
      else unbalanced_divrem a' b'
    in
    (q, shift_right r s)
  end

(* A quotient of at most m+1 limbs by a normalized divisor of n > 2m
   limbs: dividing the top 2m+1 limbs of [a] by the top m+1 limbs of
   [b] overshoots the quotient by at most 2 (TAOCP 4.3.1, Theorem B),
   and the remainder follows from the dropped low limbs alone,
   r'·base^t + a_lo - q·b_lo. The recursion never sees the full-width
   divisor, whose Knuth leaves would each cost O(m·n). Below the
   cutoff, m < 40, one Knuth pass over the full divisor is cheaper. *)
and short_divrem (a : t) (b : t) m =
  let t = Array.length b - m - 1 in
  let a_lo, a_hi = split_at a t and b_lo, b_hi = split_at b t in
  let q, r = divmod a_hi b_hi in
  let top = ref (add (shift_limbs r t) a_lo) in
  let s = mul q b_lo in
  let q = ref q in
  while compare !top s < 0 do
    q := sub !q one;
    top := add !top b
  done;
  (!q, sub !top s)

let div a b = fst (divmod a b)

(* Remainder-only entry point: below the Burnikel-Ziegler cutoff the
   quotient is never materialised. Above it the recursion needs its
   intermediate quotients, so it falls back to full division. *)
let rem (a : t) (b : t) : t =
  let n = Array.length b in
  if n = 0 then raise Division_by_zero
  else if n = 1 then of_int (snd (divmod_int a b.(0)))
  else if compare a b < 0 then a
  else if n < bz_cutoff then rem_knuth a b
  else snd (divmod a b)

(* ------------------------------------------------------------------ *)
(* Powers, roots                                                       *)
(* ------------------------------------------------------------------ *)

let pow (b : t) e =
  if e < 0 then invalid_arg "Nat.pow: negative exponent"
  else begin
    let r = ref one and b = ref b and e = ref e in
    while !e > 0 do
      if !e land 1 = 1 then r := mul !r !b;
      e := !e lsr 1;
      if !e > 0 then b := sqr !b
    done;
    !r
  end

let sqrt (a : t) =
  if is_zero a then zero
  else begin
    (* Newton iteration from an overestimate; monotonically decreasing,
       stops at floor(sqrt a). *)
    let x = ref (shift_left one ((num_bits a + 1) / 2)) in
    let continue = ref true in
    while !continue do
      let y = shift_right (add !x (div a !x)) 1 in
      if compare y !x < 0 then x := y else continue := false
    done;
    !x
  end

(* ------------------------------------------------------------------ *)
(* GCD                                                                 *)
(* ------------------------------------------------------------------ *)

let gcd_euclid a b =
  let rec go a b = if is_zero b then a else go b (rem a b) in
  if compare a b >= 0 then go a b else go b a

let trailing_zeros (a : t) =
  let rec limb i = if a.(i) = 0 then limb (i + 1) else i in
  if is_zero a then 0
  else
    let i = limb 0 in
    let rec bit l c = if l land 1 = 1 then c else bit (l lsr 1) (c + 1) in
    (i * limb_bits) + bit a.(i) 0

let gcd_binary a b =
  if is_zero a then b
  else if is_zero b then a
  else begin
    (* One Euclidean step first to balance very unequal sizes, then
       the binary (Stein) loop which needs only shifts and subtraction. *)
    let a, b = if compare a b >= 0 then (a, b) else (b, a) in
    let a = rem a b in
    if is_zero a then b
    else begin
      let za = trailing_zeros a and zb = trailing_zeros b in
      let common = Stdlib.min za zb in
      let a = ref (shift_right a za) and b = ref (shift_right b zb) in
      while not (is_zero !b) do
        if compare !a !b > 0 then begin
          let t = !a in
          a := !b;
          b := t
        end;
        b := sub !b !a;
        if not (is_zero !b) then b := shift_right !b (trailing_zeros !b)
      done;
      shift_left !a common
    end
  end

(* Lehmer's GCD with double-limb leading-digit simulation (HAC 14.57,
   Knuth 4.5.2L). Each round extracts the top 62 bits of both operands
   at a shared shift, runs single-precision extended Euclid on those
   leading digits while the bracketing-quotient test certifies every
   quotient is the true multiprecision one, and then applies the
   accumulated 2x2 cofactor matrix to the full operands — replacing
   dozens of O(n) binary-GCD passes with four mul_int and two sub.

   The signed cofactors (A, B; C, D) of HAC are carried as magnitudes
   (ua, ub; uc, ud) plus a step-parity flag: signs alternate in a
   checkerboard, so A - qC etc. never cancel and the magnitude update
   is ua + q*uc. The simulation stops when a quotient fails the
   bracket test *or* a cofactor would exceed one limb: capping the
   matrix at single-limb entries keeps every product inside the
   native-int headroom (q*uc <= mask^2, matrix-apply via the mul_int
   fast path) at ~30 bits of progress per round, which is why the
   cofactor-matrix form needs no multiprecision scratch state, unlike
   a recursive half-GCD. Rounds run while the smaller operand has more
   than [floor] limbs; the binary loop finishes from there. *)
let gcd_lehmer ~floor a b =
  let x = ref (max a b) and y = ref (min a b) in
  (* Invariant: x >= y. *)
  while Array.length !y > floor do
    if num_bits !x - num_bits !y > limb_bits then begin
      (* Too unbalanced for the leading digits to share a window: one
         full Euclidean step, as in the binary path. *)
      let r = rem !x !y in
      x := !y;
      y := r
    end
    else begin
      let s = Stdlib.max 0 (num_bits !x - (2 * limb_bits)) in
      let xh = ref (to_int_exn (shift_right !x s))
      and yh = ref (to_int_exn (shift_right !y s)) in
      let ua = ref 1 and ub = ref 0 and uc = ref 0 and ud = ref 1 in
      let even = ref true in
      let steps = ref 0 in
      let continue = ref true in
      while !continue do
        (* Bracketing quotients (x~+A)/(y~+C) and (x~+B)/(y~+D) with
           signs resolved by parity. Non-positive denominators mean
           the approximation window is exhausted; a negative numerator
           can only produce a quotient below the true q >= 1, so plain
           truncating division cannot fake an agreement. *)
        let d1 = if !even then !yh - !uc else !yh + !uc
        and d2 = if !even then !yh + !ud else !yh - !ud in
        if d1 <= 0 || d2 <= 0 then continue := false
        else begin
          let n1 = if !even then !xh + !ua else !xh - !ua
          and n2 = if !even then !xh - !ub else !xh + !ub in
          let q = n1 / d1 in
          if q <> n2 / d2 || q > mask then continue := false
          else begin
            let ta = !ua + (q * !uc) and tb = !ub + (q * !ud) in
            if ta > mask || tb > mask then continue := false
            else begin
              ua := !uc;
              uc := ta;
              ub := !ud;
              ud := tb;
              let r = !xh - (q * !yh) in
              xh := !yh;
              yh := r;
              even := not !even;
              incr steps
            end
          end
        end
      done;
      if !steps = 0 then begin
        (* No single-precision progress possible (HAC's B = 0 case):
           take one exact multiprecision division step instead. *)
        let r = rem !x !y in
        x := !y;
        y := r
      end
      else begin
        (* (x', y') = (|A*x + B*y|, |C*x + D*y|) — the true Euclidean
           remainders r_{k-1}, r_k, so both subtractions are exact
           over the naturals with the parity picking the order. *)
        let pxa = mul_int !x !ua and pyb = mul_int !y !ub in
        let pxc = mul_int !x !uc and pyd = mul_int !y !ud in
        let x', y' =
          if !even then (sub pxa pyb, sub pyd pxc)
          else (sub pyb pxa, sub pxc pyd)
        in
        x := x';
        y := y';
        if compare !x !y < 0 then begin
          let t = !x in
          x := !y;
          y := t
        end
      end
    end
  done;
  gcd_binary !x !y

let gcd a b = gcd_lehmer ~floor:lehmer_cutoff a b

(* ------------------------------------------------------------------ *)
(* Modular arithmetic                                                  *)
(* ------------------------------------------------------------------ *)

let pow_mod (b : t) (e : t) (m : t) =
  if is_zero m then raise Division_by_zero
  else if is_one m then zero
  else begin
    let nb = num_bits e in
    let r = ref one and b = ref (rem b m) in
    for i = 0 to nb - 1 do
      if testbit e i then r := rem (mul !r !b) m;
      if i < nb - 1 then b := rem (sqr !b) m
    done;
    !r
  end

let invert_mod (a : t) (m : t) =
  if is_zero m || is_one m then None
  else begin
    (* Extended Euclid tracking only the coefficient of [a], with signs
       carried explicitly: old_s * a = old_r (mod m). *)
    let old_r = ref (rem a m) and r = ref m in
    let old_s = ref one and s = ref zero in
    let old_neg = ref false and neg = ref false in
    while not (is_zero !r) do
      let q, rr = divmod !old_r !r in
      old_r := !r;
      r := rr;
      (* new_s = old_s - q * s, in signed arithmetic *)
      let qs = mul q !s in
      let ns, nneg =
        if !old_neg = !neg then
          if compare !old_s qs >= 0 then (sub !old_s qs, !old_neg)
          else (sub qs !old_s, not !old_neg)
        else (add !old_s qs, !old_neg)
      in
      old_s := !s;
      old_neg := !neg;
      s := ns;
      neg := nneg
    done;
    if not (is_one !old_r) then None
    else
      let x = rem !old_s m in
      if is_zero x then Some x
      else if !old_neg then Some (sub m x)
      else Some x
  end

(* ------------------------------------------------------------------ *)
(* Conversions: strings and bytes                                      *)
(* ------------------------------------------------------------------ *)

let of_bytes_be s =
  let n = String.length s in
  let nlimbs = ((n * 8) / limb_bits) + 1 in
  let r = Array.make nlimbs 0 in
  let acc = ref 0 and nbits = ref 0 and li = ref 0 in
  for i = n - 1 downto 0 do
    acc := !acc lor (Char.code s.[i] lsl !nbits);
    nbits := !nbits + 8;
    if !nbits >= limb_bits then begin
      r.(!li) <- !acc land mask;
      incr li;
      acc := !acc lsr limb_bits;
      nbits := !nbits - limb_bits
    end
  done;
  if !acc <> 0 then r.(!li) <- !acc;
  norm r

let to_bytes_be (a : t) =
  let nb = num_bits a in
  if nb = 0 then ""
  else begin
    let nbytes = (nb + 7) / 8 in
    let buf = Bytes.make nbytes '\000' in
    let byte_at k =
      (* byte k counts from the least-significant end *)
      let bit = k * 8 in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let lo = a.(limb) lsr off in
      let hi =
        if off > limb_bits - 8 && limb + 1 < Array.length a then
          a.(limb + 1) lsl (limb_bits - off)
        else 0
      in
      (lo lor hi) land 0xff
    in
    for k = 0 to nbytes - 1 do
      Bytes.set buf (nbytes - 1 - k) (Char.chr (byte_at k))
    done;
    Bytes.to_string buf
  end

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> invalid_arg "Nat.of_string: bad hex digit"

let of_hex_body s start =
  let acc = ref zero in
  for i = start to String.length s - 1 do
    if s.[i] <> '_' then acc := add_int (mul_int !acc 16) (hex_digit s.[i])
  done;
  !acc

let chunk_base = 1_000_000_000 (* 10^9 per decimal chunk *)

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Nat.of_string: empty"
  else if n >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_hex_body s 2
  else begin
    let acc = ref zero and chunk = ref 0 and ndig = ref 0 in
    String.iter
      (fun c ->
        match c with
        | '0' .. '9' ->
          chunk := (!chunk * 10) + (Char.code c - Char.code '0');
          incr ndig;
          if !ndig = 9 then begin
            acc := add_int (mul_int !acc chunk_base) !chunk;
            chunk := 0;
            ndig := 0
          end
        | '_' -> ()
        | _ -> invalid_arg "Nat.of_string: bad decimal digit")
      s;
    if !ndig > 0 then begin
      let scale =
        let rec go p k = if k = 0 then p else go (p * 10) (k - 1) in
        go 1 !ndig
      in
      acc := add_int (mul_int !acc scale) !chunk
    end;
    !acc
  end

let to_string (a : t) =
  if is_zero a then "0"
  else begin
    let chunks = ref [] in
    let cur = ref a in
    while not (is_zero !cur) do
      let q, r = divmod_int !cur chunk_base in
      chunks := r :: !chunks;
      cur := q
    done;
    match !chunks with
    | [] -> "0"
    | first :: rest ->
      let buf = Buffer.create 32 in
      Buffer.add_string buf (string_of_int first);
      List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
      Buffer.contents buf
  end

let to_hex (a : t) =
  if is_zero a then "0"
  else begin
    let nb = num_bits a in
    let ndig = (nb + 3) / 4 in
    let buf = Buffer.create ndig in
    for k = ndig - 1 downto 0 do
      let bit = k * 4 in
      let limb = bit / limb_bits and off = bit mod limb_bits in
      let lo = a.(limb) lsr off in
      let hi =
        if off > limb_bits - 4 && limb + 1 < Array.length a then
          a.(limb + 1) lsl (limb_bits - off)
        else 0
      in
      Buffer.add_char buf "0123456789abcdef".[(lo lor hi) land 0xf]
    done;
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

(* ------------------------------------------------------------------ *)
(* Randomness                                                          *)
(* ------------------------------------------------------------------ *)

let random_bits gen n =
  if n < 0 then invalid_arg "Nat.random_bits: negative"
  else if n = 0 then zero
  else begin
    let nbytes = (n + 7) / 8 in
    let s = gen nbytes in
    if String.length s <> nbytes then
      invalid_arg "Nat.random_bits: generator returned wrong length";
    let extra = (nbytes * 8) - n in
    let b = Bytes.of_string s in
    Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) land (0xff lsr extra)));
    of_bytes_be (Bytes.to_string b)
  end

let random_below gen bound =
  if is_zero bound then invalid_arg "Nat.random_below: zero bound"
  else begin
    let n = num_bits bound in
    let rec draw () =
      let x = random_bits gen n in
      if compare x bound < 0 then x else draw ()
    in
    draw ()
  end

(* ------------------------------------------------------------------ *)
(* Individual rungs                                                    *)
(* ------------------------------------------------------------------ *)

(* Each rung runs its own algorithm at the top level on any operands;
   the recursive rungs hand their sub-products back to the dispatcher.
   Only the wrappers below differ from the internal kernels: they
   accept the operand shapes the dispatcher never routes to a rung. *)
module Kernel = struct
  let mul_school = mul_school
  let mul_karatsuba = mul_karatsuba
  let mul_toom3 = mul_toom3
  let sqr_school = sqr_school
  let sqr_karatsuba = sqr_karatsuba
  let sqr_toom3 = sqr_toom3

  let check_ntt l =
    if not (ntt_fits l) then
      invalid_arg "Nat.Kernel: product too large for the NTT primes"

  let mul_ntt a b =
    check_ntt (Array.length a + Array.length b);
    mul_ntt a b

  let sqr_ntt a =
    check_ntt (2 * Array.length a);
    sqr_ntt a

  let divmod_knuth (a : t) (b : t) =
    match Array.length b with
    | 0 -> raise Division_by_zero
    | 1 ->
      let q, r = divmod_int a b.(0) in
      (q, of_int r)
    | _ -> divmod_knuth a b

  let gcd_binary = gcd_binary

  let gcd_lehmer a b = gcd_lehmer ~floor:0 a b

  let gcd_euclid = gcd_euclid
end

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( mod ) = rem
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
