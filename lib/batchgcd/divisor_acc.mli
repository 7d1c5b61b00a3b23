(** The gcd-product merge every batch-GCD strategy ends in.

    For modulus [m], [gcd (m, prod_j c_j mod m)] equals
    [gcd (m, prod_j gcd (m, c_j))] prime-power by prime-power, so
    contributions may be remainders of products ({!Batch_gcd}'s subset
    jobs, both sides of {!Incremental.extend}'s delta) or a cached
    earlier divisor, in any order, and the divisor comes out the
    same. A contribution divisible by [m] (a duplicate modulus, or a
    fully factored one) zeroes the accumulator and the divisor is [m]
    itself. *)

type t

val create : Bignum.Nat.t array -> t
(** One accumulator per modulus, each starting at 1. The array is
    shared, not copied. *)

val mul : t -> int -> Bignum.Nat.t -> unit
(** [mul t i c] multiplies contribution [c] into modulus [i]'s
    accumulator, reduced mod that modulus. *)

val divisors : t -> Bignum.Nat.t array
(** [gcd (m_i, acc_i)] for every modulus, in index order. *)
