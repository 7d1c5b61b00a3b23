(** Remainder trees: push a value down a product tree, reducing modulo
    the square of each node, to obtain [v mod leaf_i^2] for every leaf
    in quasilinear total time (Bernstein; as used in the paper's
    Section 3.2).

    Both descents are level-parallel: nodes within a level depend only
    on the level above, so they reduce concurrently on the given pool
    (default: the process-wide {!Parallel.Pool.get} pool) under the
    same node-count/operand-width cutoff as {!Product_tree.build}.

    A reciprocal is built only where at least two reductions read it.
    The mod-square descent reduces by each squared node once, so every
    step is a plain {!Bignum.Nat.rem} by [node^2]. The plain descent
    reads the tree's cached node precomps
    ({!Product_tree.node_precomps}): a tree taking several plain
    descents (the k-1 cross jobs of a k-subset tree, one per later
    extend of an incremental segment) computes each reciprocal once,
    and every step becomes two multiplies instead of a division —
    Bernstein's scaled-remainder trick. That cache builds lazily on
    the calling domain the first time a level is descended; precompute
    eagerly ({!Product_tree.precompute}) before running concurrent
    plain descents over one tree. *)

val remainders_mod_square :
  ?pool:Parallel.Pool.t ->
  Product_tree.t ->
  Bignum.Nat.t ->
  Bignum.Nat.t array
(** [remainders_mod_square tree v] returns [v mod (leaf_i ^ 2)] for
    each leaf, by descending the tree: the root gets [v mod root^2],
    each child the parent's remainder reduced mod the child squared.
    The root squaring is skipped outright whenever [num_bits v] shows
    [v < root^2], which holds for every product of the tree's own
    leaves. *)

val remainders :
  ?pool:Parallel.Pool.t ->
  Product_tree.t ->
  Bignum.Nat.t ->
  Bignum.Nat.t array
(** [remainders tree v] returns [v mod leaf_i] (no squaring); the
    cheaper variant used for cross-subset reductions in the
    distributed algorithm. *)
