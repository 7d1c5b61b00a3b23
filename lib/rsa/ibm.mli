(** The IBM Remote Supervisor Adapter II / BladeCenter Management
    Module failure: a prime-generation bug left only nine possible
    primes, so every affected device shipped one of the 36 moduli
    formed from pairs of them (paper sections 3.3.1 and 4.1).

    The nine primes are deterministic per key size, mirroring firmware
    that always walked the same RNG states. *)

val primes : bits:int -> Bignum.Nat.t array
(** The nine primes of [bits] bits. Deterministic in [bits]. *)

val all_moduli : bits:int -> Bignum.Nat.t list
(** The 36 moduli (unordered pairs of distinct pool primes), sorted
    and de-duplicated. *)

val generate : gen:(int -> string) -> bits:int -> Keypair.private_key
(** Device key generation: pick an unordered pair of distinct pool
    primes using [gen] to choose the indices. [bits] is the modulus
    size; pool primes have [bits/2] bits. *)

val is_pool_modulus : bits:int -> Bignum.Nat.t -> bool
(** Membership test against {!all_moduli}. *)
