(** Synthetic batch-GCD corpus with an exact oracle by construction.

    Every modulus is a product of [primes_per] distinct primes drawn
    without replacement from one run of consecutive [prime_bits]-bit
    primes, so no two moduli share a factor unless one was planted.
    One base modulus in [plant_every] carries a planted prime: most
    planted primes are shared by three base moduli, a quarter are
    "sleepers" carried by one base modulus only. The deltas then wake
    each sleeper with a fresh carrier (old-vs-new sharing), add pairs
    of fresh moduli sharing a new prime (new-vs-new), or add a member
    to an existing group. A modulus is a finding exactly when its
    planted prime has at least two carriers, and its divisor is that
    prime. *)

type params = {
  moduli : int;  (** base corpus size *)
  primes_per : int;
  prime_bits : int;  (** at most 31: every prime is one limb *)
  plant_every : int;
  deltas : int;
  delta_size : int;
}

val default : params
(** 512 base moduli of 33 31-bit primes (~1023 bits), one in 64
    planted, 16 deltas of 16. *)

type t = {
  params : params;
  base : Bignum.Nat.t array;
  delta : Bignum.Nat.t array array;
  planted : int array;
      (** planted prime per global index (base, then the deltas in
          order); 0 when none *)
}

val generate : params -> seed:int -> t

val all : t -> Bignum.Nat.t array
(** Base and deltas concatenated: the global index order. *)

val expected : t -> upto:int -> (int * Bignum.Nat.t) list
(** The (index, divisor) findings over the first [upto] moduli, in
    index order. *)

val check : t -> upto:int -> Batchgcd.Batch_gcd.finding list -> (unit, string) result
(** Findings equal {!expected} exactly, moduli included. *)

val digest : t -> string
(** Hex digest of every generated modulus, in order. *)
