(* Primality testing and prime generation.

   The 2048-entry small-prime table mirrors the sieve OpenSSL applies
   during key generation; its reach (primes up to 17863) is what the
   Mironov fingerprint keys on. *)

let sieve_up_to limit =
  let is_comp = Bytes.make (limit + 1) '\000' in
  let primes = ref [] in
  let count = ref 0 in
  for i = 2 to limit do
    if Bytes.get is_comp i = '\000' then begin
      primes := i :: !primes;
      incr count;
      let j = ref (i * i) in
      while !j <= limit do
        Bytes.set is_comp !j '\001';
        j := !j + i
      done
    end
  done;
  Array.of_list (List.rev !primes)

(* The 2048th prime is 17863; sieve a little past it. *)
let all_small_primes = lazy (sieve_up_to 20000)

let first_n_primes n =
  let all = Lazy.force all_small_primes in
  if n <= Array.length all then Array.sub all 0 n
  else begin
    (* Grow the sieve geometrically until enough primes are found. *)
    let rec grow limit =
      let s = sieve_up_to limit in
      if Array.length s >= n then Array.sub s 0 n else grow (limit * 2)
    in
    grow 40000
  end

let small_primes = Array.sub (Lazy.force all_small_primes) 0 2048

let is_small_prime n =
  if n < 2 then false
  else begin
    let rec go i =
      if i * i > n then true else if n mod i = 0 then false else go (i + 2)
    in
    if n = 2 then true else if n mod 2 = 0 then false else go 3
  end

(* [residue n p] is [n mod p] for a one-limb [p]: native [mod] when
   [n] fits an int, [Nat.mod_int] otherwise. Partial application does
   the size test once, so a caller reducing one value by many primes
   pays it once. *)
let residue n =
  match Nat.to_int n with Some i -> fun p -> i mod p | None -> Nat.mod_int n

let trial_division n =
  let r = residue n in
  Array.find_opt
    (fun p -> r p = 0 && not (Nat.equal n (Nat.of_int p)))
    small_primes

let fixed_bases = [| 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 |]

(* Miller-Rabin over the fixed bases, then [rounds] random bases in
   [2, n - 2] when [gen] is supplied. [n] is odd and above 37, so every
   fixed base lies in [2, n - 2]. [composite] is the witness test on an
   int base, [composite_nat] on a drawn one; both paths draw through
   [Nat.random_below], so the DRBG stream does not depend on the path.
   [nat_n ()] gives [n] as a Nat; it is called only for the random
   rounds, so the native path builds no Nat without [gen]. *)
let miller_rabin ?gen ~rounds nat_n composite composite_nat =
  Array.for_all (fun a -> not (composite a)) fixed_bases
  &&
  match gen with
  | None -> true
  | Some gen ->
    let bound = Nat.sub (nat_n ()) (Nat.of_int 3) in
    let rec extra k =
      k = 0
      || (not (composite_nat (Nat.add (Nat.random_below gen bound) Nat.two)))
         && extra (k - 1)
    in
    extra rounds

(* Native path. A candidate of at most [native_bits] bits is tested on
   native ints, and [mulmod] below is exact for every modulus under
   [native_limit]. Above it the [Nat] path runs. The two paths compute
   the same witness function on the same bases, so every accept/reject
   decision — and every generated key — is the same on either. *)
let native_bits = 50
let native_limit = 1 lsl native_bits

(* [mulmod a b n] is [a * b mod n] for [0 <= a, b < n < 2^50].
   Bound: a, b and n are below 2^53, so they convert to floats exactly,
   and the product and the quotient are each rounded once, with
   relative error at most 2^-53 apiece, below 2^-51 together. The true
   quotient a*b/n is below n < 2^50, so the float one is within 1/2 of
   it, and its truncation [q] is floor(a*b/n) - 1, floor(a*b/n) or
   floor(a*b/n) + 1. So a*b - q*n lies in [-n, 2n). Native int
   arithmetic wraps modulo 2^63, but a value of magnitude below 2^51
   survives the wrap exactly, and one correction brings it into
   [0, n). *)
let mulmod a b n =
  let q = int_of_float (Float.of_int a *. Float.of_int b /. Float.of_int n) in
  let r = (a * b) - (q * n) in
  if r < 0 then r + n else if r >= n then r - n else r

(* [a^e mod n] by right-to-left square-and-multiply, for [a < n]. *)
let powmod a e n =
  let rec go base e acc =
    let acc = if e land 1 = 1 then mulmod acc base n else acc in
    if e <= 1 then acc else go (mulmod base base n) (e lsr 1) acc
  in
  go a e 1

(* Witness test on native ints: [n] odd, [37 < n < native_limit],
   [n - 1 = d * 2^s]. Same steps as the Nat version below. *)
let witness_native n d s a =
  let n1 = n - 1 in
  let x = powmod a d n in
  if x = 1 || x = n1 then false
  else begin
    let rec squares i x =
      if i >= s - 1 then true
      else
        let x = mulmod x x n in
        if x = n1 then false else squares (i + 1) x
    in
    squares 0 x
  end

let probable_prime_native ?gen ~rounds n =
  let rec split d s =
    if d land 1 = 0 then split (d lsr 1) (s + 1) else (d, s)
  in
  let d, s = split (n - 1) 0 in
  let composite = witness_native n d s in
  miller_rabin ?gen ~rounds (fun () -> Nat.of_int n) composite (fun a ->
      composite (Nat.to_int_exn a))

(* Witness test on Nats: [n] odd, [n > 3], [n - 1 = d * 2^s].
   Exponentiation goes through a shared Montgomery context — the
   modulus is odd by construction. *)
let witness_composite ctx n d s a =
  let x = Montgomery.pow_mod ctx a d in
  let n1 = Nat.sub n Nat.one in
  if Nat.is_one x || Nat.equal x n1 then false
  else begin
    let rec squares i x =
      if i >= s - 1 then true
      else
        let x = Nat.rem (Nat.sqr x) n in
        if Nat.equal x n1 then false else squares (i + 1) x
    in
    squares 0 x
  end

let probable_prime_nat ?gen ~rounds n =
  let s = ref 0 and d = ref (Nat.sub n Nat.one) in
  while Nat.is_even !d do
    d := Nat.shift_right !d 1;
    incr s
  done;
  let d = !d and s = !s in
  let ctx =
    match Montgomery.create n with
    | Some ctx -> ctx
    | None -> assert false (* n odd and > 37 here *)
  in
  let composite = witness_composite ctx n d s in
  miller_rabin ?gen ~rounds (fun () -> n) (fun a -> composite (Nat.of_int a))
    composite

let is_probable_prime ?gen ?(rounds = 16) n =
  match Nat.to_int n with
  | Some i when i < 2 -> false
  | Some i when i <= 37 -> is_small_prime i
  | _ when Nat.is_even n -> false
  | Some i when i < native_limit -> probable_prime_native ?gen ~rounds i
  | _ -> probable_prime_nat ?gen ~rounds n

let candidate_of_bits gen bits =
  if bits < 2 then invalid_arg "Prime.generate: need at least 2 bits"
  else begin
    let x = Nat.random_bits gen bits in
    (* Force the top two bits (so a product of two such primes has
       exactly twice the bit length, as OpenSSL does for RSA) and the
       bottom bit (odd). *)
    let set x i = if Nat.testbit x i then x else Nat.add x (Nat.shift_left Nat.one i) in
    let x = set x (bits - 1) in
    let x = if bits >= 3 then set x (bits - 2) else x in
    if Nat.is_even x then Nat.add x Nat.one else x
  end

let quick_composite n =
  (* Cheap small-prime filter before Miller-Rabin. *)
  match trial_division n with Some _ -> true | None -> false

(* Incremental sieve search, as OpenSSL's probable_prime does it: draw
   a random odd start, compute its residue modulo each sieve prime
   once, then walk the candidate by +2 updating residues with native
   arithmetic. [fingerprint] additionally requires that no sieve prime
   other than 2 divides candidate - 1 (the Mironov property).
   [max_steps] bounds the walk so the exact-bit-size guarantee is not
   eroded; on exhaustion a fresh start is drawn. Callers pass
   [bits > 16], so every candidate exceeds every sieve prime and a zero
   residue always means a proper divisor. [is_probable_prime] sends
   each survivor of at most [native_bits] bits to the native test. *)
let sieve_search ~gen ~bits ~fingerprint =
  let nprimes = Array.length small_primes in
  let max_steps = 1 lsl 14 in
  let rec from_start () =
    let c0 = candidate_of_bits gen bits in
    let residues = Array.map (residue c0) small_primes in
    let rec step k =
      if k >= max_steps then from_start ()
      else begin
        let ok = ref true in
        let i = ref 1 (* small_primes.(0) = 2; candidates are odd *) in
        while !ok && !i < nprimes do
          let p = small_primes.(!i) in
          let r = (residues.(!i) + (2 * k)) mod p in
          if r = 0 then ok := false
          else if fingerprint && r = 1 then ok := false;
          incr i
        done;
        if not !ok then step (k + 1)
        else begin
          let c = Nat.add_int c0 (2 * k) in
          if Nat.num_bits c <> bits then from_start ()
          else if is_probable_prime c then c
          else step (k + 1)
        end
      end
    in
    step 0
  in
  from_start ()

let generate ~gen ~bits =
  if bits <= 16 then begin
    (* Tiny sizes: rejection sampling is simpler and exact. *)
    let rec draw () =
      let c = candidate_of_bits gen bits in
      if is_probable_prime c then c else draw ()
    in
    draw ()
  end
  else sieve_search ~gen ~bits ~fingerprint:false

let satisfies_openssl_fingerprint p =
  (* OpenSSL's probable_prime() rejects candidates with
     p mod primes[i] <= 1 for i >= 1, i.e. it skips 2 (p - 1 is always
     even) and tests the odd primes of its 2048-entry table. *)
  let r = residue (Nat.sub p Nat.one) in
  Array.for_all (fun q -> q = 2 || r q <> 0) small_primes

let generate_openssl_style ~gen ~bits =
  if bits >= 3 && bits <= 15 then
    (* No such prime exists: with p < 2^15, p - 1 cannot hold an odd
       factor above 17863, so it would be a power of two, and 2^k + 1
       never has the top two of 3..15 bits set. *)
    invalid_arg
      "Prime.generate_openssl_style: no OpenSSL-style prime of 3..15 bits"
  else if bits <= 16 then begin
    let rec draw () =
      let c = candidate_of_bits gen bits in
      if satisfies_openssl_fingerprint c && is_probable_prime c then c
      else draw ()
    in
    draw ()
  end
  else sieve_search ~gen ~bits ~fingerprint:true

let is_safe_prime ?gen p =
  is_probable_prime ?gen p
  && is_probable_prime ?gen (Nat.shift_right (Nat.sub p Nat.one) 1)

let next_prime n =
  let start =
    if Nat.compare n Nat.two < 0 then Nat.two
    else if Nat.is_even n then Nat.add n Nat.one
    else Nat.add n Nat.two
  in
  if Nat.equal start Nat.two then Nat.two
  else begin
    let rec go c =
      if (not (quick_composite c)) && is_probable_prime c then c
      else go (Nat.add c Nat.two)
    in
    go start
  end
