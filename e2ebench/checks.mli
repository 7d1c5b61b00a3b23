(** Output checks for the netsim-driven workloads. Each returns [Error]
    with a one-line reason instead of raising, so that the caller can
    count the operation as failed. *)

val corpus_truth :
  factors_of:(Bignum.Nat.t -> (Bignum.Nat.t * Bignum.Nat.t) option) ->
  Bignum.Nat.t array ->
  bool array
(** Per corpus index: the modulus is a generated key and one of its two
    primes is a factor of another generated key in the same corpus. *)

val findings_match_truth :
  factors_of:(Bignum.Nat.t -> (Bignum.Nat.t * Bignum.Nat.t) option) ->
  factorable:(Bignum.Nat.t -> bool) ->
  Bignum.Nat.t array ->
  Batchgcd.Batch_gcd.finding list ->
  (unit, string) result
(** Both directions over the corpus. Every finding names its corpus
    modulus and a nontrivial divisor of it; a flagged generated key is
    [factorable] (the world's ground truth) and shares a prime inside
    the corpus; every generated key that shares a prime inside the
    corpus is flagged. Moduli the generator never made (bit errors,
    substituted keys) only need a valid divisor. *)

val same_findings :
  Batchgcd.Batch_gcd.finding list ->
  Batchgcd.Batch_gcd.finding list ->
  (unit, string) result
(** Equal as sets of (modulus, divisor), whatever the corpus ids. *)

val same_text : what:string -> string -> string -> (unit, string) result
