(** Binary product trees (Bernstein): level 0 holds the inputs, each
    higher level the pairwise products, the top level the product of
    every input. The remainder tree walks the same structure downward. *)

type t

val build : ?pool:Parallel.Pool.t -> Bignum.Nat.t array -> t
(** Builds bottom-up, one level at a time. Nodes within a level are
    independent and are computed on [pool] (default: the process-wide
    {!Parallel.Pool.get} pool) once a level has at least 4 nodes of at
    least 4 limbs; smaller levels — in particular the top of the tree,
    where a single giant multiply dominates — stay serial.
    @raise Invalid_argument on an empty input or a zero modulus. *)

val of_levels : Bignum.Nat.t array array -> t
(** Rebuild a tree from its levels (leaves first, root last), as
    produced by iterating {!level} — the checkpoint-restore path in
    {!Incremental}. Validates the shape (each level half the size of
    the one below, a single root) but trusts the node values.
    @raise Invalid_argument on a malformed shape. *)

val leaves : t -> Bignum.Nat.t array
(** The inputs, in order (not a copy). *)

val root : t -> Bignum.Nat.t
(** The product of all inputs. *)

val depth : t -> int
(** Number of levels; a single input gives depth 1. *)

val level : t -> int -> Bignum.Nat.t array
(** [level t k] is the k-th level, 0 = leaves.
    @raise Invalid_argument when out of range. *)

val total_limbs : t -> int
(** Sum of [Nat.size_limbs] over every node — the paper's product
    trees needed 70-100 GB per cluster node; this is our proxy
    metric. *)

val precompute : ?pool:Parallel.Pool.t -> squares:bool -> t -> unit
(** A no-op, kept with its signature for existing callers. A tree is
    immutable and holds no derived tables: every descent step is a
    plain {!Bignum.Nat.rem}, so nothing needs building before a
    descent, and one tree can be shared by concurrent descents. *)

(**/**)

val level_parallel : nodes:int -> width:int -> bool
(** Whether a level of [nodes] nodes of [width] limbs is worth fanning
    out — shared with {!Remainder_tree} so both kernels use one
    cutoff policy. Exposed for tests and the bench harness. *)

val max_width : Bignum.Nat.t array -> int
(** Widest node of a level, in limbs — the width fed to
    {!level_parallel} (gating on the first node alone misclassifies
    levels led by a narrow odd-one-out). *)
