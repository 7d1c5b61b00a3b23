(* Unit and property tests for Nat: ring axioms, division invariants,
   every kernel rung against its oracle, conversions. *)

module N = Bignum.Nat

let nat = Alcotest.testable N.pp N.equal

(* Deterministic byte generator for reproducible random Nats. *)
let mk_gen seed =
  let st = Random.State.make [| seed |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* QCheck generator: random Nat with size up to [max_bits] bits. *)
let arb_nat ?(max_bits = 700) () =
  let open QCheck2.Gen in
  int_range 0 max_bits >>= fun bits ->
  if bits = 0 then return N.zero
  else
    let bytes = (bits + 7) / 8 in
    map
      (fun s -> N.random_bits (fun _ -> s) bits)
      (string_size ~gen:(map Char.chr (int_range 0 255)) (return bytes))

let prop name ?(count = 300) gen f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Unit tests                                                          *)
(* ------------------------------------------------------------------ *)

let test_small_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check (option int)) "to_int (of_int i)" (Some i)
        (N.to_int (N.of_int i)))
    [ 0; 1; 2; 41; 1 lsl 30; (1 lsl 31) - 1; 1 lsl 31; 1 lsl 45; max_int ]

let test_string_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check string) ("decimal " ^ s) s (N.to_string (N.of_string s)))
    [
      "0";
      "1";
      "999999999";
      "1000000000";
      "123456789012345678901234567890";
      "340282366920938463463374607431768211456";
    ]

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (N.to_hex (N.of_string "0xDEAD_BEEF"));
  Alcotest.(check string)
    "hex big" "123456789abcdef0123456789abcdef"
    (N.to_hex (N.of_string "0x0123456789abcdef0123456789abcdef"))

let test_bytes_roundtrip () =
  let x = N.of_string "0x0102030405060708090a0b0c0d0e0f" in
  Alcotest.check nat "bytes roundtrip" x (N.of_bytes_be (N.to_bytes_be x));
  Alcotest.(check string) "zero bytes" "" (N.to_bytes_be N.zero)

let test_known_arithmetic () =
  let a = N.of_string "123456789123456789123456789" in
  let b = N.of_string "987654321987654321" in
  Alcotest.(check string)
    "mul" "121932631356500531469135800347203169112635269"
    (N.to_string (N.mul a b));
  let q, r = N.divmod a b in
  Alcotest.(check string) "div" "124999998" (N.to_string q);
  Alcotest.(check string) "rem" "850308642973765431" (N.to_string r);
  Alcotest.check nat "a = q*b + r" a (N.add (N.mul q b) r)

let test_pow () =
  Alcotest.(check string)
    "2^128" "340282366920938463463374607431768211456"
    (N.to_string (N.pow N.two 128));
  Alcotest.check nat "x^0 = 1" N.one (N.pow (N.of_int 12345) 0)

let test_shift_consistency () =
  let x = N.of_string "0xfedcba9876543210fedcba9876543210" in
  Alcotest.check nat "shl then shr" x (N.shift_right (N.shift_left x 77) 77);
  Alcotest.check nat "shl = mul 2^k" (N.mul x (N.pow N.two 77))
    (N.shift_left x 77)

let test_sub_negative_raises () =
  Alcotest.check_raises "sub raises" (Invalid_argument "Nat.sub: negative result")
    (fun () -> ignore (N.sub N.one N.two))

let test_divmod_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_num_bits () =
  Alcotest.(check int) "bits 0" 0 (N.num_bits N.zero);
  Alcotest.(check int) "bits 1" 1 (N.num_bits N.one);
  Alcotest.(check int) "bits 2^31" 32 (N.num_bits (N.shift_left N.one 31));
  Alcotest.(check int) "bits 2^100-1" 100
    (N.num_bits (N.sub (N.shift_left N.one 100) N.one))

let test_sqrt_exact () =
  let x = N.of_string "123456789123456789" in
  let s = N.sqrt (N.sqr x) in
  Alcotest.check nat "sqrt of square" x s

let test_gcd_known () =
  let p = N.of_string "1000000007" in
  let a = N.mul p (N.of_string "999999937") in
  let b = N.mul p (N.of_string "1000000021") in
  Alcotest.check nat "shared prime" p (N.gcd a b);
  Alcotest.check nat "euclid agrees" (N.gcd a b) (N.Kernel.gcd_euclid a b);
  Alcotest.check nat "gcd 0 b" b (N.gcd N.zero b);
  Alcotest.check nat "gcd a 0" a (N.gcd a N.zero)

let test_invert_mod () =
  let m = N.of_string "1000000007" in
  let a = N.of_string "123456789" in
  (match N.invert_mod a m with
  | None -> Alcotest.fail "inverse must exist mod prime"
  | Some x -> Alcotest.check nat "a*x = 1" N.one (N.rem (N.mul a x) m));
  Alcotest.(check bool)
    "no inverse when gcd > 1" true
    (N.invert_mod (N.of_int 6) (N.of_int 9) = None)

let test_pow_mod_fermat () =
  (* Fermat: a^(p-1) = 1 mod p for prime p not dividing a. *)
  let p = N.of_string "170141183460469231731687303715884105727" (* 2^127-1 *) in
  let a = N.of_string "123456789123456789" in
  Alcotest.check nat "fermat" N.one (N.pow_mod a (N.sub p N.one) p)

let test_random_below_in_range () =
  let gen = mk_gen 42 in
  let bound = N.of_string "987654321987654321987654321" in
  for _ = 1 to 50 do
    let x = N.random_below gen bound in
    Alcotest.(check bool) "x < bound" true (N.compare x bound < 0)
  done

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)
(* ------------------------------------------------------------------ *)

let pair g = QCheck2.Gen.pair g g
let triple g = QCheck2.Gen.triple g g g

let props =
  let g = arb_nat () in
  [
    prop "add commutative" (pair g) (fun (a, b) -> N.equal (N.add a b) (N.add b a));
    prop "add associative" (triple g) (fun (a, b, c) ->
        N.equal (N.add a (N.add b c)) (N.add (N.add a b) c));
    prop "mul commutative" (pair g) (fun (a, b) -> N.equal (N.mul a b) (N.mul b a));
    prop "mul associative" ~count:100 (triple g) (fun (a, b, c) ->
        N.equal (N.mul a (N.mul b c)) (N.mul (N.mul a b) c));
    prop "distributivity" ~count:100 (triple g) (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "add/sub inverse" (pair g) (fun (a, b) ->
        N.equal a (N.sub (N.add a b) b));
    prop "division invariant" (pair g) (fun (a, b) ->
        if N.is_zero b then true
        else begin
          let q, r = N.divmod a b and kq, kr = N.Kernel.divmod_knuth a b in
          N.equal a (N.add (N.mul q b) r)
          && N.compare r b < 0
          && N.equal q kq && N.equal r kr
        end);
    prop "string roundtrip" g (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "hex roundtrip" g (fun a ->
        N.equal a (N.of_string ("0x" ^ N.to_hex a)));
    prop "bytes roundtrip" g (fun a -> N.equal a (N.of_bytes_be (N.to_bytes_be a)));
    prop "limbs roundtrip" g (fun a -> N.equal a (N.of_limbs (N.to_limbs a)));
    prop "gcd binary = euclid" (pair g) (fun (a, b) ->
        let e = N.Kernel.gcd_euclid a b in
        List.for_all
          (fun gcd -> N.equal e (gcd a b))
          [ N.gcd; N.Kernel.gcd_binary; N.Kernel.gcd_lehmer ]);
    prop "gcd divides both" (pair g) (fun (a, b) ->
        if N.is_zero a && N.is_zero b then true
        else begin
          let gg = N.gcd a b in
          N.is_zero (N.rem a gg) && N.is_zero (N.rem b gg)
        end);
    prop "sqrt bounds" g (fun a ->
        let s = N.sqrt a in
        N.compare (N.sqr s) a <= 0
        && N.compare (N.sqr (N.add s N.one)) a > 0);
    prop "shift roundtrip" (QCheck2.Gen.pair g (QCheck2.Gen.int_range 0 200))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "compare antisym" (pair g) (fun (a, b) ->
        N.compare a b = -N.compare b a);
  ]

(* Each dispatcher rung against its oracle: schoolbook for the
   multiplies, Knuth D for division, Euclid for gcd. The rungs come
   from [N.Kernel], so a test names the rung it exercises and the
   dispatch cutoffs (24, 96 and 2048 limbs for mul/sqr, 40 for
   division, 8 for gcd) stay fixed. [limbs k] is a random value of
   exactly [k] limbs. *)
module K = N.Kernel

let limbs gen k =
  if k = 0 then N.zero
  else
    let top = N.add (N.random_bits gen (N.limb_bits - 1)) N.one in
    N.add
      (N.shift_left top ((k - 1) * N.limb_bits))
      (N.random_bits gen ((k - 1) * N.limb_bits))

(* Every rung on random operands from 0 to ~700 bits, zero and one
   limb included: shapes the dispatcher never routes to a rung. *)
let kernel_props =
  let g = arb_nat () in
  [
    prop "mul rungs = schoolbook" ~count:200 (pair g) (fun (a, b) ->
        let s = K.mul_school a b in
        List.for_all
          (fun f -> N.equal s (f a b))
          [ N.mul; K.mul_karatsuba; K.mul_toom3; K.mul_ntt ]);
    prop "sqr rungs = schoolbook" ~count:200 g (fun a ->
        let s = K.mul_school a a in
        List.for_all
          (fun f -> N.equal s (f a))
          [ N.sqr; K.sqr_school; K.sqr_karatsuba; K.sqr_toom3; K.sqr_ntt ]);
  ]

(* Balanced shapes one limb either side of the 24-limb Karatsuba
   cutoff, and unbalanced ones well past it. *)
let test_karatsuba_vs_schoolbook () =
  let gen = mk_gen 7 in
  List.iter
    (fun (la, lb) ->
      let a = limbs gen la and b = limbs gen lb in
      let school = K.mul_school a b in
      Alcotest.check nat "karatsuba = schoolbook" school (K.mul_karatsuba a b);
      Alcotest.check nat "mul = schoolbook" school (N.mul a b);
      Alcotest.check nat "sqr karatsuba = schoolbook" (K.sqr_school a)
        (K.sqr_karatsuba a))
    [ (23, 23); (24, 24); (25, 25); (23, 60); (24, 300); (130, 113) ]

(* Divisors one limb either side of the 40-limb Burnikel-Ziegler
   cutoff, and larger ones whose recursion runs several levels. *)
let test_bz_vs_knuth () =
  let gen = mk_gen 9 in
  List.iter
    (fun (la, lb) ->
      let a = limbs gen la and b = limbs gen lb in
      let q, r = N.divmod a b and kq, kr = K.divmod_knuth a b in
      Alcotest.check nat "bz quotient = knuth" kq q;
      Alcotest.check nat "bz remainder = knuth" kr r;
      Alcotest.check nat "rem = knuth" kr (N.rem a b))
    [ (80, 39); (80, 40); (80, 41); (123, 41); (291, 81); (800, 200);
      (400, 200); (401, 200) ]

(* Edge shapes for the dispatcher, most above the 40-limb cutoff, and
   Knuth D on the divisors the dispatcher keeps from it. *)
let test_bz_balanced_and_edge_shapes () =
  let gen = mk_gen 11 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.add (N.random_bits gen bbits) N.one in
      let q, r = N.divmod a b in
      Alcotest.check nat "invariant" a (N.add (N.mul q b) r);
      Alcotest.(check bool) "r < b" true (N.compare r b < 0);
      let kq, kr = K.divmod_knuth a b in
      Alcotest.check nat "knuth quotient" q kq;
      Alcotest.check nat "knuth remainder" r kr)
    [
      (5000, 5000); (5000, 4999); (5000, 2501); (5000, 2500); (10000, 1300);
      (2600, 2600); (2600, 1300); (1, 5000); (0, 5000); (5000, 1);
    ];
  Alcotest.check_raises "knuth by zero" Division_by_zero (fun () ->
      ignore (K.divmod_knuth N.one N.zero))

(* Toom-3 against schoolbook: balanced one limb either side of the
   96-limb cutoff, unbalanced shapes the dispatcher sends to
   Karatsuba, a zero operand, aliased squaring. *)
let test_toom3_vs_karatsuba () =
  let gen = mk_gen 13 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.random_bits gen bbits in
      let school = K.mul_school a b in
      Alcotest.check nat "karatsuba = schoolbook" school (K.mul_karatsuba a b);
      Alcotest.check nat "toom3 = schoolbook" school (K.mul_toom3 a b);
      Alcotest.check nat "mul = schoolbook" school (N.mul a b);
      let sq_school = K.sqr_school a in
      Alcotest.check nat "sqr toom3 = schoolbook" sq_school (K.sqr_toom3 a);
      Alcotest.check nat "sqr = schoolbook" sq_school (N.sqr a);
      Alcotest.check nat "sqr = mul a a (aliased)" sq_school (K.mul_toom3 a a))
    [
      (200, 200); (300, 160); (2945, 2945); (2976, 2976); (3007, 3007);
      (4000, 3500); (6000, 1000); (6000, 31); (5000, 5000); (5000, 0);
    ]

(* The full ladder around the 96-limb cutoff: 2976 bits is exactly 96
   limbs. *)
let test_toom3_default_boundary () =
  let gen = mk_gen 15 in
  List.iter
    (fun bits ->
      let a = N.random_bits gen bits and b = N.random_bits gen bits in
      Alcotest.check nat "default ladder = karatsuba" (K.mul_karatsuba a b)
        (N.mul a b))
    [ 2940; 2976; 3007; 6200 ]

(* Cross-kernel GCD equivalence: the dispatcher, Lehmer rounds at
   every size, the binary loop and pure Euclid must agree on 10k
   random pairs whose sizes straddle the 8-limb Lehmer cutoff, plus
   the structured edge shapes (equal, zero, one-limb, shared factor,
   powers of two). *)
let test_hgcd_equivalence () =
  let gen = mk_gen 37 in
  let st = Random.State.make [| 41 |] in
  let check_triple tag a b =
    let e = K.gcd_euclid a b in
    List.iter
      (fun (rung, g) ->
        if not (N.equal e (g a b)) then
          Alcotest.failf "%s: %s <> euclid (a=%s b=%s)" tag rung (N.to_hex a)
            (N.to_hex b))
      [ ("gcd", N.gcd); ("lehmer", K.gcd_lehmer); ("binary", K.gcd_binary) ]
  in
  for i = 1 to 10_000 do
    (* Sizes from one bit to ~700 bits: 8 limbs = 248 bits. *)
    let bits () = 1 + Random.State.int st 700 in
    let a = N.random_bits gen (bits ()) and b = N.random_bits gen (bits ()) in
    let a, b =
      match i mod 10 with
      | 0 -> (a, a) (* equal *)
      | 1 -> (a, N.zero)
      | 2 -> (N.zero, b)
      | 3 -> (a, N.of_int (1 + Random.State.int st 100)) (* one-limb *)
      | 4 ->
        (* planted shared factor: the batch-GCD leaf shape *)
        let f = N.add (N.random_bits gen 120) N.one in
        (N.mul a f, N.mul b f)
      | 5 ->
        (* shared power of two, stressing the common-shift bookkeeping *)
        let k = Random.State.int st 80 in
        (N.shift_left a k, N.shift_left b k)
      | 6 -> (N.mul a b, b) (* exact multiple: gcd = b *)
      | _ -> (a, b)
    in
    check_triple (Printf.sprintf "pair %d" i) a b
  done;
  (* At and just above the cutoff: an 8-limb pair never reaches the
     Lehmer rounds through the dispatcher, a 9-limb pair runs one. *)
  for i = 1 to 200 do
    let k = 8 + (i mod 2) in
    let f = limbs gen (1 + (i mod 3)) in
    check_triple (Printf.sprintf "%d limbs %d" k i) (limbs gen k) (limbs gen k);
    check_triple (Printf.sprintf "%d limbs shared %d" k i)
      (N.mul f (limbs gen (k - 3))) (N.mul f (limbs gen (k - 3)))
  done;
  (* A few large pairs so several Lehmer rounds run back to back. *)
  for i = 1 to 10 do
    let a = N.random_bits gen 6000 and b = N.random_bits gen 6000 in
    check_triple (Printf.sprintf "large %d" i) a b
  done

(* The default dispatch against binary on batch-GCD-shaped inputs:
   modulus x (z below modulus^2). *)
let test_hgcd_default_dispatch () =
  let gen = mk_gen 43 in
  for _ = 1 to 50 do
    let m = N.add (N.random_bits gen 2048) N.one in
    let z = N.rem (N.random_bits gen 4096) (N.sqr m) in
    Alcotest.check nat "default gcd = binary" (K.gcd_binary m z) (N.gcd m z)
  done

(* NTT against Toom-3, Karatsuba and schoolbook on shapes the
   dispatcher never sends it (small, unbalanced, one piece, piece and
   transform-size power-of-two edges), all-ones operands (maximal
   convolution coefficients, the worst case for the CRT carry chain)
   and aliased squaring. *)
let test_ntt_vs_toom3 () =
  let gen = mk_gen 47 in
  List.iter
    (fun (abits, bbits) ->
      let a = N.random_bits gen abits and b = N.random_bits gen bbits in
      let school = K.mul_school a b in
      Alcotest.check nat "toom3 = schoolbook" school (K.mul_toom3 a b);
      Alcotest.check nat "ntt = schoolbook" school (K.mul_ntt a b);
      let sq_ntt = K.sqr_ntt a in
      Alcotest.check nat "sqr ntt = schoolbook" (K.sqr_school a) sq_ntt;
      Alcotest.check nat "sqr = mul a a (aliased)" sq_ntt (K.mul_ntt a a))
    [
      (200, 200); (247, 247); (248, 248); (249, 230); (300, 160);
      (4000, 3500); (6000, 1000); (5000, 5000); (5000, 0); (5000, 2600);
      (14, 14); (15, 15); (16, 16); (960, 960); (961, 961);
    ];
  (* all-ones operands: every 15-bit piece is 2^15 - 1 *)
  List.iter
    (fun bits ->
      let a = N.sub (N.shift_left N.one bits) N.one in
      let b = N.sub (N.shift_left N.one (bits / 3)) N.one in
      Alcotest.check nat "all-ones ntt = toom3" (K.mul_toom3 a a) (K.mul_ntt a a);
      Alcotest.check nat "all-ones sqr" (K.sqr_toom3 a) (K.sqr_ntt a);
      Alcotest.check nat "all-ones unbalanced" (K.mul_school a b)
        (K.mul_ntt a b))
    [ 15; 496; 4096; 7688 ]

(* The full ladder around the 2048-limb NTT cutoff: 63488 bits is
   exactly 2048 limbs. Toom-3 at the top level vs the dispatcher. *)
let test_ntt_default_boundary () =
  let gen = mk_gen 53 in
  List.iter
    (fun bits ->
      let a = N.random_bits gen bits and b = N.random_bits gen bits in
      Alcotest.check nat "default ladder = toom3" (K.mul_toom3 a b) (N.mul a b);
      Alcotest.check nat "sqr default ladder = toom3" (K.sqr_toom3 a) (N.sqr a))
    [ 63300; 63488; 63700; 127000 ]

let test_infix () =
  let open N.Infix in
  let a = N.of_int 100 and b = N.of_int 7 in
  Alcotest.check nat "+" (N.of_int 107) (a + b);
  Alcotest.check nat "-" (N.of_int 93) (a - b);
  Alcotest.check nat "*" (N.of_int 700) (a * b);
  Alcotest.check nat "/" (N.of_int 14) (a / b);
  Alcotest.check nat "mod" (N.of_int 2) (a mod b);
  Alcotest.(check bool) "<" true (b < a);
  Alcotest.(check bool) ">=" true (a >= a);
  Alcotest.(check bool) "=" false (a = b)

let tests =
  [
    Alcotest.test_case "small int roundtrip" `Quick test_small_roundtrip;
    Alcotest.test_case "decimal roundtrip" `Quick test_string_roundtrip;
    Alcotest.test_case "hex" `Quick test_hex;
    Alcotest.test_case "bytes roundtrip" `Quick test_bytes_roundtrip;
    Alcotest.test_case "known mul/div" `Quick test_known_arithmetic;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "shifts" `Quick test_shift_consistency;
    Alcotest.test_case "sub negative raises" `Quick test_sub_negative_raises;
    Alcotest.test_case "divide by zero" `Quick test_divmod_by_zero;
    Alcotest.test_case "num_bits" `Quick test_num_bits;
    Alcotest.test_case "sqrt exact" `Quick test_sqrt_exact;
    Alcotest.test_case "gcd known" `Quick test_gcd_known;
    Alcotest.test_case "invert_mod" `Quick test_invert_mod;
    Alcotest.test_case "pow_mod fermat" `Quick test_pow_mod_fermat;
    Alcotest.test_case "random_below range" `Quick test_random_below_in_range;
    Alcotest.test_case "karatsuba vs schoolbook" `Slow test_karatsuba_vs_schoolbook;
    Alcotest.test_case "toom3 vs karatsuba/schoolbook" `Slow test_toom3_vs_karatsuba;
    Alcotest.test_case "toom3 default boundary" `Slow test_toom3_default_boundary;
    Alcotest.test_case "hgcd vs binary vs euclid" `Slow test_hgcd_equivalence;
    Alcotest.test_case "hgcd default dispatch" `Quick test_hgcd_default_dispatch;
    Alcotest.test_case "ntt vs toom3/karatsuba/schoolbook" `Slow test_ntt_vs_toom3;
    Alcotest.test_case "ntt default boundary" `Slow test_ntt_default_boundary;
    Alcotest.test_case "burnikel-ziegler vs knuth" `Slow test_bz_vs_knuth;
    Alcotest.test_case "division edge shapes" `Quick test_bz_balanced_and_edge_shapes;
    Alcotest.test_case "infix operators" `Quick test_infix;
  ]
  @ props @ kernel_props
