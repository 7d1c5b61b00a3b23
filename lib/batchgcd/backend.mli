(** The batch-GCD sweep as a value, for code outside [lib/batchgcd]
    (the [batchgcd-outside-backend] lint rule keeps product code on
    {!factor}).

    A full sweep is the paper's k-subset split (Section 3.2);
    {!tree} is its k = 1 case, one Bernstein product/remainder tree.
    Findings are {!Batch_gcd.findings_equal} for every k. *)

type t

val tree : t
(** {!Batch_gcd.factor_batch}: one product tree, one mod-square
    descent. *)

val ksubset_k : int -> t
(** {!Batch_gcd.factor_subsets} with [k] subset trees and [k^2]
    reduction jobs. *)

val factor :
  t ->
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  Bignum.Nat.t array ->
  Batch_gcd.finding list
