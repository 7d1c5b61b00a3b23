module N = Bignum.Nat

type params = {
  moduli : int;
  primes_per : int;
  prime_bits : int;
  plant_every : int;
  deltas : int;
  delta_size : int;
}

let default =
  {
    moduli = 512;
    primes_per = 33;
    prime_bits = 31;
    plant_every = 64;
    deltas = 16;
    delta_size = 16;
  }

type t = {
  params : params;
  base : N.t array;
  delta : N.t array array;
  planted : int array;
}

(* Deterministic Miller-Rabin: bases 2, 3, 5 and 7 decide every
   n < 3_215_031_751, and a product of two values below 2^31 fits an
   OCaml int. Register arithmetic only, unlike a sieve, whose strided
   writes make its time swing with the host's cache contention. *)
let mulmod a b n = a * b mod n

let powmod b e n =
  let rec go acc b e =
    if e = 0 then acc
    else go (if e land 1 = 1 then mulmod acc b n else acc) (mulmod b b n) (e lsr 1)
  in
  go 1 (b mod n) e

let trial = [| 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47 |]

let is_prime n =
  if n < 2 then false
  else if n land 1 = 0 then n = 2
  else if Array.exists (fun p -> n mod p = 0) trial then Array.mem n trial
  else begin
    let d = ref (n - 1) and s = ref 0 in
    while !d land 1 = 0 do
      d := !d lsr 1;
      incr s
    done;
    let composite_by a =
      let x = ref (powmod a !d n) in
      if !x = 1 || !x = n - 1 then false
      else begin
        let i = ref 1 in
        while !i < !s && !x <> n - 1 do
          x := mulmod !x !x n;
          incr i
        done;
        !x <> n - 1
      end
    in
    not (List.exists composite_by [ 2; 3; 5; 7 ])
  end

(* The [need] consecutive primes at or below [top], largest first. *)
let primes_below top need =
  let out = Array.make need 0 in
  let k = ref 0 and n = ref top in
  while !k < need do
    if !n < 2 then invalid_arg "Sweep_corpus.generate: too few primes";
    if is_prime !n then begin
      out.(!k) <- !n;
      incr k
    end;
    decr n
  done;
  out

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let generate p ~seed =
  if p.prime_bits > N.limb_bits || p.prime_bits < 8 then
    invalid_arg "Sweep_corpus.generate: prime_bits";
  if p.delta_size < 2 || p.primes_per < 2 then
    invalid_arg "Sweep_corpus.generate: sizes";
  let st = Random.State.make [| 0x5eed; seed |] in
  let slots = p.moduli / p.plant_every in
  let sleepers = slots / 4 in
  let grouped = slots - sleepers in
  let groups = Stdlib.max 1 (grouped / 3) in
  let total = p.moduli + (p.deltas * p.delta_size) in
  let need = (total * p.primes_per) + slots + p.deltas in
  (* A run just below 2^prime_bits, at a seeded offset, so every
     product is within a few bits of primes_per * prime_bits. *)
  let offset = Random.State.int st (1 lsl (p.prime_bits - 4)) in
  let primes = primes_below ((1 lsl p.prime_bits) - 1 - offset) need in
  shuffle st primes;
  let next = ref 0 in
  let fresh () =
    let q = primes.(!next) in
    incr next;
    q
  in
  let group_prime = Array.init groups (fun _ -> fresh ()) in
  let sleeper_prime = Array.init sleepers (fun _ -> fresh ()) in
  let planted = Array.make total 0 in
  for j = 0 to slots - 1 do
    let pos = (j * p.plant_every) + Random.State.int st p.plant_every in
    planted.(pos) <-
      (if j < grouped then group_prime.(j mod groups)
       else sleeper_prime.(j - grouped))
  done;
  for d = 0 to p.deltas - 1 do
    let at pos = p.moduli + (d * p.delta_size) + pos in
    let a = Random.State.int st p.delta_size in
    if d < sleepers then planted.(at a) <- sleeper_prime.(d)
    else if (d - sleepers) mod 2 = 0 then begin
      let b = (a + 1 + Random.State.int st (p.delta_size - 1)) mod p.delta_size in
      let q = fresh () in
      planted.(at a) <- q;
      planted.(at b) <- q
    end
    else planted.(at a) <- group_prime.((d - sleepers) / 2 mod groups)
  done;
  let modulus i =
    let own = if planted.(i) = 0 then p.primes_per else p.primes_per - 1 in
    let m = ref (if planted.(i) = 0 then N.one else N.of_int planted.(i)) in
    for _ = 1 to own do
      m := N.mul_int !m (fresh ())
    done;
    !m
  in
  let all = Array.init total modulus in
  {
    params = p;
    base = Array.sub all 0 p.moduli;
    delta =
      Array.init p.deltas (fun d ->
          Array.sub all (p.moduli + (d * p.delta_size)) p.delta_size);
    planted;
  }

let all t = Array.concat (t.base :: Array.to_list t.delta)

let expected t ~upto =
  let carriers = Hashtbl.create 64 in
  for i = 0 to upto - 1 do
    let q = t.planted.(i) in
    if q <> 0 then
      Hashtbl.replace carriers q
        (1 + Option.value ~default:0 (Hashtbl.find_opt carriers q))
  done;
  List.init upto (fun i -> i)
  |> List.filter_map (fun i ->
         let q = t.planted.(i) in
         if q <> 0 && Hashtbl.find carriers q >= 2 then Some (i, N.of_int q)
         else None)

let check t ~upto findings =
  let all = all t in
  let got =
    List.sort
      (fun (a : Batchgcd.Batch_gcd.finding) b -> Int.compare a.index b.index)
      findings
  in
  let want = expected t ~upto in
  let rec go = function
    | [], [] -> Ok ()
    | (f : Batchgcd.Batch_gcd.finding) :: _, [] ->
      Error (Printf.sprintf "spurious finding at index %d" f.index)
    | [], (i, _) :: _ -> Error (Printf.sprintf "missed planted index %d" i)
    | f :: fs, (i, d) :: ws ->
      if f.index <> i then
        Error (Printf.sprintf "finding at index %d, planted %d" f.index i)
      else if i >= upto || not (N.equal f.modulus all.(i)) then
        Error (Printf.sprintf "wrong modulus at index %d" i)
      else if not (N.equal f.divisor d) then
        Error (Printf.sprintf "wrong divisor at index %d" i)
      else go (fs, ws)
  in
  go (got, want)

let digest t =
  let b = Buffer.create 4096 in
  Array.iter (fun m -> Buffer.add_string b (N.to_hex m); Buffer.add_char b ',') (all t);
  Digest.to_hex (Digest.string (Buffer.contents b))
