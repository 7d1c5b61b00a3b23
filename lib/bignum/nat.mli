(** Arbitrary-precision natural numbers.

    Values are immutable. The representation is a little-endian array of
    31-bit limbs (base [2^31]) with no trailing zero limb, so that limb
    products fit comfortably in OCaml's 63-bit native integers.

    This module exists because the reproduction container has no zarith /
    GMP binding; it provides everything the batch-GCD pipeline needs:
    schoolbook, Karatsuba, Toom-3 and NTT multiplication, Knuth
    Algorithm-D and Burnikel-Ziegler division, binary and Lehmer GCD,
    and modular exponentiation. Each operation dispatches on operand
    size through one fixed ladder; there are no tuning knobs. *)

type t

val limb_bits : int
(** Bits per limb (31). The representation base is [2 ^ limb_bits]. *)

val zero : t
val one : t
val two : t

(** {1 Construction and conversion} *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int option
(** [to_int n] is [Some i] when [n] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit. *)

val of_limbs : int array -> t
(** Build from little-endian base-[2^31] limbs; copies and normalizes.
    @raise Invalid_argument on out-of-range limbs. *)

val to_limbs : t -> int array
(** Little-endian limbs, no trailing zero. [to_limbs zero = [||]]. *)

val of_string : string -> t
(** Decimal, or hexadecimal with a ["0x"] prefix. Underscores allowed.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hexadecimal, no prefix, ["0"] for zero. *)

val of_bytes_be : string -> t
(** Interpret a byte string as a big-endian unsigned integer. *)

val to_bytes_be : t -> string
(** Minimal-length big-endian bytes; [""] for zero. *)

(** {1 Comparison and predicates} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_one : t -> bool
val is_even : t -> bool
val is_odd : t -> bool
val min : t -> t -> t
val max : t -> t -> t
val hash : t -> int

(** {1 Bit-level operations} *)

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val size_limbs : t -> int
(** Number of limbs in the normalized representation;
    [size_limbs zero = 0]. Equals [ceil (num_bits / limb_bits)]. *)

val testbit : t -> int -> bool
val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Arithmetic} *)

val add : t -> t -> t
val add_int : t -> int -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val sub_int : t -> int -> t

val mul : t -> t -> t
(** Schoolbook below 24 limbs in the smaller operand, Karatsuba above,
    Toom-Cook-3 once both operands reach 96 limbs and are
    near-balanced, and a two-prime CRT number-theoretic transform
    (quasi-linear) once they reach 2048 limbs. Past 512 limbs the
    independent sub-products of one recursion level (or the NTT's
    per-prime convolutions) fan out onto {!Parallel.Pool}; the pool's
    nesting guard keeps recursive and tree-level parallel calls
    inline, so this composes with [Product_tree]/[Remainder_tree]
    level parallelism deadlock-free. *)

val mul_int : t -> int -> t

val sqr : t -> t
(** Dedicated squaring: schoolbook with the symmetric cross products
    computed once below 24 limbs, Karatsuba with three recursive
    squarings above, Toom-3 with five recursive squarings from 96
    limbs, and the NTT tier (one forward transform per prime instead
    of two) from 2048 limbs — measurably cheaper than [mul a a] on
    the remainder tree's mod-square descent. Parallelises like
    {!mul}. *)

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [0 <= r < b].
    Knuth Algorithm D below 40 limbs in the divisor, Burnikel-Ziegler
    recursive division above.
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t

val rem : t -> t -> t
(** Remainder only. Below the Burnikel-Ziegler cutoff this runs a
    dedicated Algorithm-D variant that never allocates or writes the
    quotient. *)

val divmod_int : t -> int -> t * int
val mod_int : t -> int -> int

val pow : t -> int -> t
(** [pow b e] with a non-negative native exponent. *)

val sqrt : t -> t
(** Integer square root (floor). *)

(** {1 Number theory} *)

val gcd : t -> t -> t
(** Lehmer above 8 limbs in the smaller operand: single-precision
    extended Euclid on the top 62 bits of both operands accumulates a
    2x2 cofactor matrix that is applied to the full values once per
    round, so each O(n) pass retires ~30 quotient bits instead of the
    binary loop's one or two. At or below the cutoff this is the
    binary (Stein) GCD with a Euclidean first step for unbalanced
    sizes. *)

val pow_mod : t -> t -> t -> t
(** [pow_mod b e m] is [b^e mod m]. @raise Division_by_zero if [m] is 0. *)

val invert_mod : t -> t -> t option
(** [invert_mod a m] is [Some x] with [a*x = 1 (mod m)] when
    [gcd a m = 1]. *)

(** {1 Randomness}

    Sampling is driven by an explicit byte generator so device-RNG
    simulations control every bit that enters key generation. *)

val random_bits : (int -> string) -> int -> t
(** [random_bits gen n]: [gen k] must return [k] uniform random bytes;
    the result is uniform in [\[0, 2^n)]. *)

val random_below : (int -> string) -> t -> t
(** Uniform in [\[0, bound)] by rejection sampling.
    @raise Invalid_argument if the bound is zero. *)

val pp : Format.formatter -> t -> unit

(** {1 Individual rungs}

    The kernels behind {!mul}, {!sqr}, {!divmod} and {!gcd}, for
    equivalence tests and benches only; product code calls the
    dispatchers, whose cutoffs are fixed. Each rung runs its own
    algorithm at the top level on any operands, including shapes the
    dispatcher never routes to it (unbalanced Toom-3, a 1-limb
    Karatsuba, Lehmer rounds on small operands); the recursive rungs
    hand their sub-products back to the dispatcher. *)
module Kernel : sig
  val mul_school : t -> t -> t
  (** Schoolbook multiplication, the multiply oracle. *)

  val mul_karatsuba : t -> t -> t
  val mul_toom3 : t -> t -> t

  val mul_ntt : t -> t -> t
  (** @raise Invalid_argument when the product exceeds the transform
      sizes the two NTT primes support (about 1 Gbit). *)

  val sqr_school : t -> t
  val sqr_karatsuba : t -> t
  val sqr_toom3 : t -> t

  val sqr_ntt : t -> t
  (** @raise Invalid_argument as {!mul_ntt}. *)

  val divmod_knuth : t -> t -> t * t
  (** Knuth Algorithm D at every divisor size, the division oracle.
      @raise Division_by_zero if the divisor is zero. *)

  val gcd_binary : t -> t -> t
  (** The binary (Stein) GCD that {!gcd} runs at or below its cutoff,
      after one Euclidean step. *)

  val gcd_lehmer : t -> t -> t
  (** Lehmer rounds down to a zero remainder, at any operand size. *)

  val gcd_euclid : t -> t -> t
  (** Pure Euclidean GCD, the gcd oracle. *)
end

(** Infix operators, meant to be used via [Nat.Infix]. *)
module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( mod ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
