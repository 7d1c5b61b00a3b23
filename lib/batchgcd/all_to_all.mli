(** All-to-all pair pruning (Pelofske, arXiv 2405.03166): the delta
    strategy {!Incremental.extend} runs on small deltas.

    Compare product-tree nodes pairwise, top-down, and {e prune} every
    cross product whose subtree roots are coprime — a gcd of 1 between
    two interior nodes proves every leaf pair under them trivial.
    Surviving pairs recurse to the leaves, where the exact pairwise
    gcd(m_i, m_j) is recorded; each comparison below the first runs
    against the tiny gcd carried down from the parent pair rather than
    the subtree products themselves.

    No remainder trees are built, so against a big corpus a small
    delta with sparse sharing prunes almost everything at the roots;
    a bulk recompute would pay one product-sized gcd per unpruned
    split. The hits fold into divisors through {!Divisor_acc}. *)

val pairwise_hits :
  ?pool:Parallel.Pool.t -> Product_tree.t -> (int * int * Bignum.Nat.t) list
(** Every unordered leaf pair (i, j, gcd) of one tree with a
    nontrivial gcd, each compared exactly once — the pruned-recursion
    equivalent of {!Batch_gcd.naive_pairwise_hits}, in schedule
    (not index) order. *)

val cross_hits :
  ?pool:Parallel.Pool.t ->
  Product_tree.t ->
  Product_tree.t ->
  (int * int * Bignum.Nat.t) list
(** Nontrivial pairs (i in first tree, j in second tree, gcd) across
    two trees: one root gcd prunes an entire untouched segment. *)
