(** Batch GCD over an id-range-sharded corpus.

    The corpus lives in a {!Corpus.Store} whose dense ids are the
    global sweep indexes: with a power-of-two [stride], shard [s]
    covers ids [s*stride, (s+1)*stride). Each shard keeps its own
    segment forest ({!Incremental.t}). The full sweep is
    {!Batch_gcd.factor_forest}: one product tree over the corpus, one
    mod-square descent, and the tree cut at level [log2 stride], so
    each shard's tree is the corpus tree's subtree over its id range
    and findings are exactly those of {!Batch_gcd.factor_batch}.

    {!save_dir} writes the corpus as mapped limb arenas plus one
    forest checkpoint per shard; {!load_dir} reopens the arenas with
    [Unix.map_file] and leaves forests on disk, so a million-modulus
    checkpoint opens in O(shard count) and is immediately queryable
    ({!find}, {!findings}). Forests load lazily when {!extend} (or
    {!segment_count}) needs them.

    Moduli must be distinct across the whole corpus (dedup first, as
    [Weakkeys.Pipeline] and the CLI do); a duplicate raises
    [Invalid_argument]. Like {!Incremental}, values are single-writer:
    {!extend} returns the new state and invalidates the old one (they
    share the underlying store). *)

type t

val default_stride : int
(** 65536. *)

val create :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?stride:int ->
  Bignum.Nat.t array ->
  t
(** Full sweep, cut into shards of [stride] (default
    {!default_stride}) moduli, the last possibly shorter.
    @raise Invalid_argument unless [stride] is a power of two, or on a
    duplicate modulus. *)

val stride_for : shards:int -> int -> int
(** [stride_for ~shards n]: the smallest power-of-two stride that
    splits [n] ids into at most [shards] shards.
    @raise Invalid_argument when [shards < 1]. *)

val extend :
  ?pool:Parallel.Pool.t -> ?domains:int -> t -> Bignum.Nat.t array -> t
(** Fold new moduli in: the delta is chunked at shard boundaries (tail
    shard topped up first, then whole strides) and each chunk folded
    through the corpus-wide forest by {!Incremental.extend}, which
    picks its strategy from the chunk size. The result is
    findings-equal to a full recompute. Loads any on-disk shard
    forests first. *)

val backend_uses : t -> (string * int) list
(** Strategy name -> job count of the most recent sweep or extend on
    this value (sorted by name; empty on a loaded checkpoint):
    [("tree", shard count)] after {!create}, the
    {!Incremental.delta_strategy} of each chunk after {!extend}. Not
    persisted. *)

val findings : t -> Batch_gcd.finding list
(** Current findings, in global index order. *)

val corpus_size : t -> int
val stride : t -> int
val shard_count : t -> int

val segment_count : t -> int
(** Total segments across all shard forests (loads them). *)

val loaded_shards : t -> int
(** How many shard forests are resident — observability for the lazy
    restore path. *)

val store : t -> Corpus.Store.t
(** The backing store; ids are global sweep indexes. *)

val corpus : t -> Bignum.Nat.t array
(** Every modulus in id order (a fresh array — materialises the whole
    corpus; prefer {!store} at scale). *)

val find : t -> Bignum.Nat.t -> int option
(** Global id of a modulus, if ingested. *)

val save : out_channel -> t -> unit
(** Eager single-stream checkpoint (the {!Weakkeys.Stage} cache
    format). Loads any on-disk shard forests first. *)

val load : in_channel -> t
(** @raise Corpus.Io.Corrupt on a malformed checkpoint. *)

val save_dir : t -> string -> unit
(** Directory checkpoint: corpus arenas ({!Corpus.Store.save}, mapped
    shards skipped), one [forest-NNNN.ckpt] per shard (skipped while
    still on disk from the same directory), and a [sweep] metadata
    file (stride, total, findings) — each atomically via tmp+rename. *)

val load_dir : string -> t
(** Reopen a directory checkpoint in O(shard count): arenas are
    mapped, findings read from [sweep], forests left on disk.
    @raise Corpus.Io.Corrupt on damaged or inconsistent files. *)

val is_dir_checkpoint : string -> bool
(** Whether a directory holds a {!save_dir} checkpoint (the CLI's
    auto-detect between sharded and legacy single-file state). *)
