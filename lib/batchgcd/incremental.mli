(** Incremental batch GCD over a growing corpus.

    The paper's measurement is longitudinal — new scan snapshots are
    folded into an 81 M-modulus corpus month after month — yet the
    product/remainder-tree cost of a full recompute is dominated by
    the {e old} corpus, exactly the part that does not change. This
    module keeps a {b segment forest}: one product tree per ingested
    batch (the initial corpus's single tree cut into aligned
    subtrees by {!create}, then one tree per {!extend} delta). Folding
    in [d] new moduli against [n] old ones costs one tree over the
    delta, one descent of each segment root through it, and one
    descent through each old segment that shares a prime with the
    delta, instead of rebuilding the full forest.

    Results are {e exactly} the full-recompute findings, not an
    approximation: for an old modulus [m] with previous divisor
    [d_old] and delta product [P], the updated divisor
    [gcd (m, d_old * (P mod m))] equals
    [gcd (m, (product of all other moduli) mod m)] because
    [gcd (m, a*b) = gcd (m, gcd (m, a) * gcd (m, b))] holds
    prime-power by prime-power ({!Divisor_acc}). Tests assert
    {!Batch_gcd.findings_equal} against a from-scratch run.

    Moduli must be distinct across the whole corpus (intern through
    {!Corpus.Store} first, as [Weakkeys.Pipeline] does); a duplicate
    is reported with the whole modulus as divisor, matching
    {!Batch_gcd.factor_batch} on an input containing duplicates. *)

type t
(** Cached state: the segment forest and the current findings. The
    corpus order (concatenated segment leaves) is the order moduli
    were first presented, so finding indexes are stable across
    {!extend} calls. *)

val create : ?pool:Parallel.Pool.t -> Bignum.Nat.t array -> t
(** Initial run: one single-tree sweep ({!Batch_gcd.factor_forest}),
    its tree kept as the forest's first segments — the subtrees of
    the largest power-of-two size [s] with [n >= 16 * s], so 16 to 32
    segments from 16 moduli up, and one per modulus below 32. *)

val extend : ?pool:Parallel.Pool.t -> t -> Bignum.Nat.t array -> t
(** [extend t fresh] folds a batch of new moduli into the corpus as
    one new segment tree, with remainder trees only and no old tree
    rebuilt. Every segment root descends the fresh tree and the fresh
    root descends it mod-square, which completes the fresh moduli's
    divisors. One gcd per fresh modulus, against the product of the
    segment roots' remainders, picks out the fresh moduli that share
    a prime with the old corpus. Only the segments they touch
    descend, each with the product of its gcds with those moduli,
    which shares with every old modulus under it exactly what the
    fresh root does. Only the fresh moduli and the leaves of the
    segments that descended take a gcd; every other cached finding is
    kept as it is. Findings equal a full recompute, and the input is
    returned unchanged when [fresh] is empty. *)

val findings : t -> Batch_gcd.finding list
(** Current findings, in corpus-index order. *)

val corpus : t -> Bignum.Nat.t array
(** Concatenated segment leaves — every modulus ingested so far, in
    index order (a fresh array). *)

val corpus_size : t -> int
val segment_count : t -> int

val segments : t -> (int * Product_tree.t) array
(** The forest as (leaf offset, tree) pairs in offset order (a fresh
    array; the trees are shared). *)

val of_segments :
  findings:Batch_gcd.finding list -> (int * Product_tree.t) array -> t
(** Assemble a state from segments and their findings ({!Sharded}
    keeps a sweep's tree cut at its stride this way). Offsets must
    be contiguous from 0 and finding indexes in range.
    @raise Invalid_argument otherwise. *)

val total_limbs : t -> int
(** Sum of {!Product_tree.total_limbs} over the forest — the resident
    cost of keeping the cache. *)

val save : out_channel -> t -> unit
(** Serialize the forest and findings (binary, see {!Corpus.Io}). *)

val load : in_channel -> t
(** @raise Corpus.Io.Corrupt on a malformed or truncated checkpoint.
    @raise End_of_file on an empty channel. *)
