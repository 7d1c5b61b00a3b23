(** Remainder trees: push a value down a product tree, reducing modulo
    the square of each node, to obtain [v mod leaf_i^2] for every leaf
    in quasilinear total time (Bernstein; as used in the paper's
    Section 3.2).

    Both descents are level-parallel: nodes within a level depend only
    on the level above, so they reduce concurrently on the given pool
    (default: the process-wide {!Parallel.Pool.get} pool) under the
    same node-count/operand-width cutoff as {!Product_tree.build}.

    Every step is a plain {!Bignum.Nat.rem}: by [node^2] on the
    mod-square descent, by [node] on the plain one. The tree holds no
    derived tables, so descents need no preparation and any number of
    them may share one tree concurrently. *)

val remainders_mod_square :
  ?pool:Parallel.Pool.t ->
  Product_tree.t ->
  Bignum.Nat.t ->
  Bignum.Nat.t array
(** [remainders_mod_square tree v] returns [v mod (leaf_i ^ 2)] for
    each leaf, by descending the tree: the root gets [v mod root^2],
    each child the parent's remainder reduced mod the child squared.
    A node's squaring is skipped outright whenever the bit length of
    the incoming value shows it is already below [node^2]; at the root
    this holds for every product of the tree's own leaves. *)

val remainders :
  ?pool:Parallel.Pool.t ->
  Product_tree.t ->
  Bignum.Nat.t ->
  Bignum.Nat.t array
(** [remainders tree v] returns [v mod leaf_i] (no squaring); the
    cheaper variant used for cross-subset reductions in the
    distributed algorithm. *)
