(** Batch GCD: find every modulus in a set that shares a prime factor
    with any other, in quasilinear time (paper Section 3.2).

    Three implementations with identical results:
    - {!naive}: quadratic modular accumulation, the baseline the paper
      calls infeasible at scale;
    - {!factor_batch}: Bernstein product/remainder trees;
    - {!factor_subsets}: the paper's k-subset modification that trades
      total work (quadratic in [k]) for cluster parallelism and a
      smaller peak tree.

    Inputs are expected to be distinct; duplicates are reported with
    the whole modulus as divisor (see {!dedup}). *)

type finding = {
  index : int;  (** position in the input array *)
  modulus : Bignum.Nat.t;
  divisor : Bignum.Nat.t;
      (** [gcd (modulus, product of all other inputs)]; strictly
          between 1 and the modulus for the classic shared-prime case,
          equal to the modulus when every prime is shared (IBM-style
          cliques or duplicate inputs) *)
}

val dedup : Bignum.Nat.t array -> Bignum.Nat.t array
(** Sort-free deduplication preserving first occurrence order. *)

val naive : Bignum.Nat.t array -> finding list
(** O(n^2): for each modulus, accumulate the product of all others
    modulo it, then one GCD. *)

val naive_pairwise_hits : Bignum.Nat.t array -> (int * int * Bignum.Nat.t) list
(** Every pair (i, j, gcd) with a nontrivial common divisor — O(n^2)
    GCDs; useful for tests and for post-processing small flagged
    sets. *)

val factor_batch :
  ?pool:Parallel.Pool.t -> Bignum.Nat.t array -> finding list
(** Single product tree + remainder tree, with level-parallel kernels
    run on [pool] (default: the process-wide {!Parallel.Pool.get}
    pool). The same sweep seeds every segment forest. *)

val factor_subsets :
  ?pool:Parallel.Pool.t -> k:int -> Bignum.Nat.t array -> finding list
(** The distributed variant: split the input into [k] subsets, build a
    product per subset, and reduce every product through every
    subset's tree ([k^2] jobs, run on the domain pool). [k] is clamped
    to the input size. Results are identical to {!factor_batch}. *)

val findings_equal : finding list -> finding list -> bool
(** Order-insensitive comparison, for cross-implementation tests. *)

(**/**)

val factor_forest :
  ?pool:Parallel.Pool.t ->
  segment:int ->
  Bignum.Nat.t array ->
  (int * Product_tree.t) array * finding list
(** {!factor_batch} that also keeps its product tree, cut into
    subtrees of [segment] leaves ({!Product_tree.cut}) with their leaf
    offset into the input array — how {!Incremental} and {!Sharded}
    seed their segment forests. Concatenating the segments' leaves in
    offset order reproduces the input; an empty input gives no
    segments.
    @raise Invalid_argument unless [segment] is a power of two. *)

val own_subset_component : Bignum.Nat.t -> Bignum.Nat.t -> Bignum.Nat.t
(** [own_subset_component m z] with [z = P mod m^2] and [m | P] is
    [(P / m) mod m] — the contribution of [m]'s own subset to its
    accumulated cofactor product. Shared with {!Incremental}. *)

val collect : Bignum.Nat.t array -> Bignum.Nat.t array -> finding list
(** [collect divisors moduli] keeps the nontrivial per-index divisors
    as findings, in index order. Shared with {!Incremental}. *)
