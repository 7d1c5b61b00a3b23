(** Recover full prime factorizations from batch-GCD findings.

    A finding's divisor is usually a single shared prime; IBM-style
    cliques and duplicate moduli come back with the whole modulus as
    divisor and need pairwise GCDs within the (small) flagged set to
    split — exactly what the paper's post-processing did. *)

type t = {
  modulus : Bignum.Nat.t;
  p : Bignum.Nat.t;  (** smaller prime *)
  q : Bignum.Nat.t;  (** larger prime *)
}

val recover :
  ?parent:t option array * Batchgcd.Batch_gcd.finding list ->
  Batchgcd.Batch_gcd.finding list -> t list * Bignum.Nat.t list
(** [recover findings] returns the factored moduli plus the moduli that
    could not be split into two primes — non-well-formed moduli from
    bit errors land in the second list.

    [parent = (index, fresh)] reuses an earlier run over a subset of
    these findings: [index] is that run's split per store id ([None]:
    did not split), and [fresh] the findings that are new since it or
    whose divisor changed. Every other finding keeps its split, except
    those whose divisor is the whole modulus: new findings can split
    them, so they are always split again. The result equals a run
    without [parent]. *)

val primes : t list -> Bignum.Nat.t list
(** All primes, deduplicated. *)
