(** Non-well-formed moduli from bit errors (paper Section 3.3.5).

    A bit flip in a valid RSA modulus yields an essentially random
    integer: usually divisible by several small primes, sometimes
    prime itself, and never the product of two equal-size primes. Such
    moduli surface in the batch GCD output with junk divisors and must
    be set aside rather than counted as vulnerable implementations. *)

val suspicious : bits:int -> Bignum.Nat.t -> bool
(** True when the modulus cannot be a well-formed RSA modulus of
    [bits] bits: wrong size, even, a tiny prime factor, or prime. *)

val bitflip_neighbor :
  known:(Bignum.Nat.t -> bool) -> Bignum.Nat.t -> Bignum.Nat.t option
(** Search all single-bit flips of the modulus for a member of the
    known corpus — the paper's evidence that a corrupt certificate sat
    one bit away from a valid one. *)

val is_bitflip_of : Bignum.Nat.t -> Bignum.Nat.t -> bool
(** [is_bitflip_of n m]: [m] is one of the single-bit flips of [n] that
    {!bitflip_neighbor} tries, so [bitflip_neighbor ~known n] finds a
    neighbour whenever [known m] holds. One subtraction, not a search. *)

val partition :
  bits:int -> Bignum.Nat.t list -> Bignum.Nat.t list * Bignum.Nat.t list
(** Split (clean, suspicious). *)
