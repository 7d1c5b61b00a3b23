module N = Bignum.Nat
module P = Bignum.Prime

let pool_size = 9

(* One fixed DRBG stream per key size reproduces the same nine primes
   on every call, like the buggy firmware reproduced the same nine RNG
   states on every device. The memo is shared across the domain pool
   that materializes device keys: an immutable list behind an
   [Atomic], read without locking and extended only under
   [pool_mutex], so each pool is generated once. *)
let pool_mutex = Mutex.create ()
let primes_memo : (int * N.t array) list Atomic.t = Atomic.make []

let with_lock f =
  Mutex.lock pool_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_mutex) f

let primes ~bits =
  match List.assoc_opt bits (Atomic.get primes_memo) with
  | Some a -> a
  | None ->
    with_lock (fun () ->
        let memo = Atomic.get primes_memo in
        match List.assoc_opt bits memo with
        | Some a -> a
        | None ->
          let drbg =
            Hashes.Drbg.create ~seed:(Printf.sprintf "ibm-rsa2-pool-%d" bits) ()
          in
          let gen = Hashes.Drbg.gen_fn drbg in
          (* OpenSSL-style: IBM sits in the "satisfy fingerprint"
             column of the paper's Table 5. *)
          let arr =
            Array.init pool_size (fun _ -> P.generate_openssl_style ~gen ~bits)
          in
          Atomic.set primes_memo ((bits, arr) :: memo);
          arr)

let all_moduli ~bits =
  let pool = primes ~bits:(bits / 2) in
  let acc = ref [] in
  for i = 0 to pool_size - 1 do
    for j = i + 1 to pool_size - 1 do
      acc := N.mul pool.(i) pool.(j) :: !acc
    done
  done;
  List.sort_uniq N.compare !acc

let generate ~gen ~bits =
  let pool = primes ~bits:(bits / 2) in
  let byte () = Char.code (gen 1).[0] in
  (* Draw distinct pool indices until the exponent is invertible
     (e = 65537 fails to invert only when it divides p-1 or q-1, so
     this loop essentially never repeats). *)
  let rec attempt () =
    let i = byte () mod pool_size in
    let j =
      let rec draw () =
        let j = byte () mod pool_size in
        if j = i then draw () else j
      in
      draw ()
    in
    let p = pool.(i) and q = pool.(j) in
    let p1 = N.sub p N.one and q1 = N.sub q N.one in
    let lam = N.div (N.mul p1 q1) (N.gcd p1 q1) in
    match N.invert_mod Keypair.default_e lam with
    | Some d ->
      { Keypair.pub = { n = N.mul p q; e = Keypair.default_e }; p; q; d }
    | None -> attempt ()
  in
  attempt ()

let moduli_tbl : (int, (N.t, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 4

let is_pool_modulus ~bits n =
  let set =
    match with_lock (fun () -> Hashtbl.find_opt moduli_tbl bits) with
    | Some s -> s
    | None ->
      (* Compute outside the lock: all_moduli takes it internally. *)
      let ms = all_moduli ~bits in
      with_lock (fun () ->
          match Hashtbl.find_opt moduli_tbl bits with
          | Some s -> s
          | None ->
            let s = Hashtbl.create 64 in
            List.iter (fun m -> Hashtbl.replace s m ()) ms;
            Hashtbl.replace moduli_tbl bits s;
            s)
  in
  Hashtbl.mem set n
