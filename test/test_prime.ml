(* Tests for primality testing, prime generation, and the OpenSSL
   prime-structure fingerprint. *)

module N = Bignum.Nat
module P = Bignum.Prime

let nat = Alcotest.testable N.pp N.equal

let mk_gen seed =
  let st = Random.State.make [| seed |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

let test_small_primes_table () =
  Alcotest.(check int) "2048 primes" 2048 (Array.length P.small_primes);
  Alcotest.(check int) "first prime" 2 P.small_primes.(0);
  Alcotest.(check int) "2048th prime" 17863 P.small_primes.(2047);
  Array.iter
    (fun p -> Alcotest.(check bool) (string_of_int p) true (P.is_small_prime p))
    P.small_primes

let test_first_n_primes () =
  Alcotest.(check (array int)) "first 10"
    [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29 |]
    (P.first_n_primes 10);
  Alcotest.(check int) "extendable past table" 3000
    (Array.length (P.first_n_primes 3000))

let test_miller_rabin_agrees_with_trial_division () =
  for n = 2 to 2000 do
    Alcotest.(check bool) (string_of_int n) (P.is_small_prime n)
      (P.is_probable_prime (N.of_int n))
  done

let test_known_primes () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s true (P.is_probable_prime (N.of_string s)))
    [
      "2147483647" (* 2^31-1 *);
      "2305843009213693951" (* 2^61-1 *);
      "170141183460469231731687303715884105727" (* 2^127-1 *);
      "57896044618658097711785492504343953926634992332820282019728792003956564819949"
      (* 2^255-19 *);
    ]

let test_known_composites () =
  List.iter
    (fun s ->
      Alcotest.(check bool) s false (P.is_probable_prime (N.of_string s)))
    [
      "561" (* Carmichael *);
      "41041" (* Carmichael *);
      "340282366920938463463374607431768211457" (* 2^128+1 *);
      "170141183460469231731687303715884105725";
    ]

let test_generate () =
  let gen = mk_gen 1 in
  List.iter
    (fun bits ->
      let p = P.generate ~gen ~bits in
      Alcotest.(check int) "exact size" bits (N.num_bits p);
      Alcotest.(check bool) "prime" true (P.is_probable_prime ~gen p);
      Alcotest.(check bool) "odd" true (N.is_odd p))
    [ 32; 64; 128; 200 ]

let test_openssl_fingerprint_generation () =
  let gen = mk_gen 2 in
  (* OpenSSL-style primes always satisfy the fingerprint. *)
  for _ = 1 to 5 do
    let p = P.generate_openssl_style ~gen ~bits:128 in
    Alcotest.(check bool) "openssl prime satisfies" true
      (P.satisfies_openssl_fingerprint p)
  done;
  (* A plain prime satisfies it only with probability ~7.5%; over many
     draws we must see both outcomes (probability of failure < 1e-8). *)
  let seen_fail = ref false in
  for _ = 1 to 300 do
    let p = P.generate ~gen ~bits:64 in
    if not (P.satisfies_openssl_fingerprint p) then seen_fail := true
  done;
  Alcotest.(check bool) "plain primes mostly fail fingerprint" true !seen_fail

let test_openssl_style_small_sizes () =
  List.iter
    (fun bits ->
      match P.generate_openssl_style ~gen:(mk_gen bits) ~bits with
      | _ -> Alcotest.failf "%d bits: expected Invalid_argument" bits
      | exception Invalid_argument _ -> ())
    [ 3; 8; 15 ];
  let p = P.generate_openssl_style ~gen:(mk_gen 16) ~bits:16 in
  Alcotest.(check int) "16 bits" 16 (N.num_bits p);
  Alcotest.(check bool) "16-bit prime satisfies" true
    (P.satisfies_openssl_fingerprint p)

let test_fingerprint_definition () =
  (* p = 17864 is not prime, but take a prime p where p-1 has a small
     factor 3: p = 7 -> p-1 = 6 divisible by 2 and 3. *)
  Alcotest.(check bool) "7 fails (6 = 2*3)" false
    (P.satisfies_openssl_fingerprint (N.of_int 7))

let test_safe_prime () =
  Alcotest.(check bool) "23 safe" true (P.is_safe_prime (N.of_int 23));
  Alcotest.(check bool) "29 not safe" false (P.is_safe_prime (N.of_int 29))

let test_next_prime () =
  Alcotest.check nat "after 0" N.two (P.next_prime N.zero);
  Alcotest.check nat "after 2" (N.of_int 3) (P.next_prime N.two);
  Alcotest.check nat "after 24" (N.of_int 29) (P.next_prime (N.of_int 24));
  Alcotest.check nat "after 2^31-1" (N.of_string "2147483659")
    (P.next_prime (N.of_string "2147483647"))

let test_trial_division () =
  let p = N.of_string "1000003" in
  (match P.trial_division (N.mul_int p 17863) with
  | Some 17863 -> ()
  | Some q -> Alcotest.failf "wrong factor %d" q
  | None -> Alcotest.fail "factor not found");
  match P.trial_division p with
  | None -> ()
  | Some q -> Alcotest.failf "spurious factor %d" q

(* ------------------------------------------------------------------ *)
(* Oracle: the all-Nat generator and tests as they stood before the   *)
(* native path, kept here so the library can be checked against them. *)
(* Residues use [snd (N.divmod_int _ _)], the old [N.mod_int].         *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  let mod_int n p = snd (N.divmod_int n p)

  let trial_division n =
    let found = ref None in
    (try
       Array.iter
         (fun p ->
           if mod_int n p = 0 && not (N.equal n (N.of_int p)) then begin
             found := Some p;
             raise Exit
           end)
         P.small_primes
     with Exit -> ());
    !found

  let witness_composite ctx n d s a =
    let x = Bignum.Montgomery.pow_mod ctx a d in
    let n1 = N.sub n N.one in
    if N.is_one x || N.equal x n1 then false
    else begin
      let rec squares i x =
        if i >= s - 1 then true
        else
          let x = N.rem (N.sqr x) n in
          if N.equal x n1 then false else squares (i + 1) x
      in
      squares 0 x
    end

  let fixed_bases = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 |]

  (* [n - 1 = d * 2^s] with [d] odd. *)
  let split n =
    let s = ref 0 and d = ref (N.sub n N.one) in
    while N.is_even !d do
      d := N.shift_right !d 1;
      incr s
    done;
    (!d, !s)

  let ctx n = Option.get (Bignum.Montgomery.create n)

  let is_probable_prime n =
    match N.to_int n with
    | Some i when i < 2 -> false
    | Some i when i <= 37 -> P.is_small_prime i
    | _ ->
      if N.is_even n then false
      else begin
        let n1 = N.sub n N.one in
        let d, s = split n in
        let ctx = ctx n in
        not
          (Array.exists
             (fun a ->
               let a = N.of_int a in
               N.compare a n1 < 0 && witness_composite ctx n d s a)
             fixed_bases)
      end

  let candidate_of_bits gen bits =
    let x = N.random_bits gen bits in
    let set x i = if N.testbit x i then x else N.add x (N.shift_left N.one i) in
    let x = set x (bits - 1) in
    let x = if bits >= 3 then set x (bits - 2) else x in
    if N.is_even x then N.add x N.one else x

  let sieve_search ~gen ~bits ~fingerprint =
    let nprimes = Array.length P.small_primes in
    let rec from_start () =
      let c0 = candidate_of_bits gen bits in
      let residues = Array.map (fun p -> mod_int c0 p) P.small_primes in
      let tiny = N.num_bits c0 <= 16 in
      let c0_int = if tiny then N.to_int_exn c0 else 0 in
      let max_steps = 1 lsl 14 in
      let rec step k =
        if k >= max_steps then from_start ()
        else begin
          let ok = ref true in
          let i = ref 1 in
          while !ok && !i < nprimes do
            let p = P.small_primes.(!i) in
            let r = (residues.(!i) + (2 * k)) mod p in
            if r = 0 && not (tiny && c0_int + (2 * k) = p) then ok := false
            else if fingerprint && r = 1 then ok := false;
            incr i
          done;
          if not !ok then step (k + 1)
          else begin
            let c = N.add_int c0 (2 * k) in
            if N.num_bits c <> bits then from_start ()
            else if is_probable_prime c then c
            else step (k + 1)
          end
        end
      in
      step 0
    in
    from_start ()

  let satisfies_openssl_fingerprint p =
    let p1 = N.sub p N.one in
    Array.for_all (fun q -> q = 2 || mod_int p1 q <> 0) P.small_primes

  let rec draw gen bits accept =
    let c = candidate_of_bits gen bits in
    if accept c then c else draw gen bits accept

  let generate ~gen ~bits =
    if bits <= 16 then draw gen bits is_probable_prime
    else sieve_search ~gen ~bits ~fingerprint:false

  let generate_openssl_style ~gen ~bits =
    if bits <= 16 then
      draw gen bits (fun c ->
          satisfies_openssl_fingerprint c && is_probable_prime c)
    else sieve_search ~gen ~bits ~fingerprint:true
end

let drbg seed = Hashes.Drbg.gen_fn (Hashes.Drbg.create ~seed ())

(* Values of every size class the residue helper distinguishes: zero,
   one limb, two limbs up to the int limit, and beyond it. *)
let residue_values () =
  let gen = mk_gen 11 in
  [ N.zero; N.one; N.of_int 17863; N.of_int (17863 * 17881);
    N.of_int max_int; N.add_int (N.of_int max_int) 1;
    N.of_string "340282366920938463463374607431768211457" ]
  @ List.concat_map
      (fun bits -> List.init 8 (fun _ -> N.random_bits gen bits))
      [ 16; 31; 32; 48; 62; 63; 96; 200 ]

let test_residue_helper () =
  List.iter
    (fun n ->
      let r = P.residue n in
      Array.iter
        (fun p ->
          let want = Oracle.mod_int n p in
          if r p <> want || N.mod_int n p <> want then
            Alcotest.failf "%s mod %d: residue %d, mod_int %d, oracle %d"
              (N.to_string n) p (r p) (N.mod_int n p) want)
        P.small_primes)
    (residue_values ())

let test_residue_callers () =
  let gen = mk_gen 12 in
  (* Products with a sieve prime, sieve primes themselves, plain
     values and generated primes of both styles. *)
  let values =
    residue_values ()
    @ Array.to_list (Array.map N.of_int (Array.sub P.small_primes 0 64))
    @ List.map (fun p -> N.mul_int (N.of_int 1000003) p) [ 2; 3; 17863 ]
    @ List.init 16 (fun i ->
          P.generate_openssl_style ~gen ~bits:(20 + (5 * i)))
    @ List.init 16 (fun i -> P.generate ~gen ~bits:(20 + (5 * i)))
  in
  List.iter
    (fun n ->
      Alcotest.(check (option int))
        ("trial division " ^ N.to_string n)
        (Oracle.trial_division n) (P.trial_division n);
      if not (N.is_zero n) then
        Alcotest.(check bool)
          ("fingerprint " ^ N.to_string n)
          (Oracle.satisfies_openssl_fingerprint n)
          (P.satisfies_openssl_fingerprint n))
    values

let generator_bits =
  [ 8; 16; 17; 32; 48; P.native_bits; P.native_bits + 2; 64; 96 ]

(* OpenSSL-style primes start at 16 bits: below that none exists and
   the generator refuses the size (the oracle would loop). *)
let test_generators_match_oracle () =
  for seed = 1 to 200 do
    List.iter
      (fun bits ->
        let check name lib oracle =
          let tag = Printf.sprintf "%s seed %d bits %d" name seed bits in
          let s = Printf.sprintf "prime-oracle/%s/%d/%d" name seed bits in
          Alcotest.check nat tag
            (oracle ~gen:(drbg s) ~bits) (lib ~gen:(drbg s) ~bits)
        in
        check "plain" P.generate Oracle.generate;
        if bits >= 16 then
          check "openssl" P.generate_openssl_style
            Oracle.generate_openssl_style)
      generator_bits
  done

(* Per-base comparison of the native witness with the Nat one. *)
let check_witnesses n =
  let nn = N.of_int n in
  let d, s = Oracle.split nn in
  let ctx = Oracle.ctx nn in
  let dn = N.to_int_exn d in
  Array.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "witness %d base %d" n a)
        (Oracle.witness_composite ctx nn d s (N.of_int a))
        (P.witness_native n dn s a))
    Oracle.fixed_bases;
  Alcotest.(check bool)
    (Printf.sprintf "is_probable_prime %d" n)
    (Oracle.is_probable_prime nn) (P.is_probable_prime nn)

let strong_pseudoprimes =
  (* Smallest strong pseudoprimes to the first 1..7 prime bases. *)
  [ 2047; 1373653; 25326001; 3215031751; 2152302898747; 3474749660383;
    341550071728321 ]

let carmichaels = [ 561; 41041; 825265 ]

let test_native_mr_edge_cases () =
  List.iter
    (fun n ->
      check_witnesses n;
      Alcotest.(check bool) (string_of_int n) false
        (P.is_probable_prime (N.of_int n)))
    (strong_pseudoprimes @ carmichaels);
  (* Base 2 alone is fooled by every listed strong pseudoprime. *)
  List.iter
    (fun n ->
      let d, s = Oracle.split (N.of_int n) in
      Alcotest.(check bool) (Printf.sprintf "%d fools base 2" n) false
        (P.witness_native n (N.to_int_exn d) s 2))
    strong_pseudoprimes;
  (* Odd values just below the native bound, primes among them. *)
  let top = 1 lsl P.native_bits in
  for i = 0 to 400 do
    check_witnesses (top - 1 - (2 * i))
  done

(* Random extra rounds draw [N.random_below] on either path: after
   [rounds] rounds on a prime, the DRBG stands where [rounds] such
   draws leave it. *)
let test_extra_rounds_stream () =
  let below_bound =
    let rec down c =
      if Oracle.is_probable_prime (N.of_int c) then c else down (c - 2)
    in
    down ((1 lsl P.native_bits) - 1)
  in
  List.iter
    (fun p ->
      let g1 = Hashes.Drbg.create ~seed:"rounds" () in
      let g2 = Hashes.Drbg.create ~seed:"rounds" () in
      Alcotest.(check bool) (N.to_string p) true
        (P.is_probable_prime ~gen:(Hashes.Drbg.gen_fn g1) ~rounds:5 p);
      for _ = 1 to 5 do
        ignore (N.random_below (Hashes.Drbg.gen_fn g2) (N.sub p (N.of_int 3)))
      done;
      Alcotest.(check string) ("stream after " ^ N.to_string p)
        (Hashes.Drbg.generate g2 16) (Hashes.Drbg.generate g1 16))
    [ N.of_int 1000003; N.of_int below_bound;
      N.of_string "2305843009213693951" ]

let test_mulmod_near_bound () =
  let top = 1 lsl P.native_bits in
  let oracle a b n =
    N.to_int_exn (N.rem (N.mul (N.of_int a) (N.of_int b)) (N.of_int n))
  in
  let check a b n =
    let got = P.mulmod a b n and want = oracle a b n in
    if got <> want then
      Alcotest.failf "mulmod %d %d %d = %d, want %d" a b n got want
  in
  (* The largest primes below the bound, as moduli and as operands. *)
  let primes =
    let rec go c acc k =
      if k = 0 then acc
      else if Oracle.is_probable_prime (N.of_int c) then
        go (c - 2) (c :: acc) (k - 1)
      else go (c - 2) acc k
    in
    go (top - 1) [] 24
  in
  let st = Random.State.make [| 13 |] in
  for i = 0 to 2000 do
    let n = top - 1 - i in
    check (n - 1) (n - 1) n;
    check (n - 2) (n - 1) n;
    let a = Random.State.full_int st n and b = Random.State.full_int st n in
    check a b n
  done;
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          List.iter (fun q -> if p < n && q < n then check p q n) primes)
        primes)
    primes;
  for _ = 1 to 20000 do
    let n = 2 + Random.State.full_int st (top - 2) in
    check (Random.State.full_int st n) (Random.State.full_int st n) n
  done

let prop_generated_primes_pass_random_rounds =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"generated primes pass randomized MR" ~count:8
       (QCheck2.Gen.int_range 3 1000)
       (fun seed ->
         let gen = mk_gen seed in
         let p = P.generate ~gen ~bits:96 in
         P.is_probable_prime ~gen ~rounds:8 p))

let tests =
  [
    Alcotest.test_case "small prime table" `Quick test_small_primes_table;
    Alcotest.test_case "first_n_primes" `Quick test_first_n_primes;
    Alcotest.test_case "MR vs trial division" `Quick
      test_miller_rabin_agrees_with_trial_division;
    Alcotest.test_case "known primes" `Quick test_known_primes;
    Alcotest.test_case "known composites" `Quick test_known_composites;
    Alcotest.test_case "generate sizes" `Slow test_generate;
    Alcotest.test_case "openssl fingerprint generation" `Slow
      test_openssl_fingerprint_generation;
    Alcotest.test_case "openssl style small sizes" `Quick
      test_openssl_style_small_sizes;
    Alcotest.test_case "fingerprint definition" `Quick test_fingerprint_definition;
    Alcotest.test_case "safe primes" `Quick test_safe_prime;
    Alcotest.test_case "next_prime" `Quick test_next_prime;
    Alcotest.test_case "trial division" `Quick test_trial_division;
    Alcotest.test_case "residue helper vs mod_int" `Quick test_residue_helper;
    Alcotest.test_case "residue callers vs oracle" `Quick test_residue_callers;
    Alcotest.test_case "generators vs Nat oracle" `Slow
      test_generators_match_oracle;
    Alcotest.test_case "native MR edge cases" `Quick test_native_mr_edge_cases;
    Alcotest.test_case "mulmod near native bound" `Quick test_mulmod_near_bound;
    Alcotest.test_case "extra rounds draw the Nat stream" `Quick
      test_extra_rounds_stream;
    prop_generated_primes_pass_random_rounds;
  ]
