(** Batch GCD over an id-range-sharded corpus.

    The corpus lives in a {!Corpus.Store} whose dense ids are the
    global sweep indexes: with a power-of-two [stride], shard [s]
    covers ids [s*stride, (s+1)*stride). One segment forest
    ({!Incremental.t}) covers the whole corpus, and none of its
    segments crosses a shard boundary. The full sweep is
    {!Batch_gcd.factor_forest}: one product tree over the corpus, one
    mod-square descent, and the tree cut at level [log2 stride], so
    each shard's tree is the corpus tree's subtree over its id range
    and findings are exactly those of {!Batch_gcd.factor_batch}.

    A checkpoint is one stream: magic, stride, shard count (a second
    copy of the stride's effect, checked on load), then the forest
    ({!Incremental.save}). {!save_dir} writes it atomically to
    [dir/sweep], and {!load_dir} rebuilds the store from the forest's
    leaves.

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

val extend : ?pool:Parallel.Pool.t -> t -> Bignum.Nat.t array -> t
(** Fold new moduli in: the delta is chunked at shard boundaries (tail
    shard topped up first, then whole strides) and each chunk folded
    through the corpus-wide forest by {!Incremental.extend}'s
    remainder-tree delta. The result is findings-equal to a full
    recompute. *)

val backend_uses : t -> (string * int) list
(** Strategy name -> job count of the most recent sweep or extend on
    this value (empty on a loaded checkpoint):
    [("tree", shard count)] after {!create}, [("delta", chunk count)]
    after {!extend}. Not persisted. *)

val findings : t -> Batch_gcd.finding list
(** Current findings, in global index order. *)

val corpus_size : t -> int
val stride : t -> int
val shard_count : t -> int

val segment_count : t -> int
(** Segments in the forest: one per shard after {!create}, plus one
    per chunk of each {!extend}. *)

val forest : t -> Incremental.t
(** The corpus-wide segment forest; leaf offsets are global ids. *)

val corpus : t -> Bignum.Nat.t array
(** Every modulus in id order (a fresh array). *)

val find : t -> Bignum.Nat.t -> int option
(** Global id of a modulus, if ingested. *)

val save : out_channel -> t -> unit
(** Write the checkpoint stream (also the {!Weakkeys.Stage} cache
    format). *)

val load : in_channel -> t
(** @raise Corpus.Io.Corrupt on a malformed checkpoint, a stride that
    is not a power of two, a shard count that does not match the stride
    and corpus size, a segment that crosses a shard boundary, or a
    duplicate modulus. *)

val save_dir : t -> string -> unit
(** Write {!save}'s stream to [dir/sweep] through
    {!Corpus.Io.write_atomic} (creating [dir] if needed): the rename
    is the commit point, so a crash leaves the old checkpoint or the
    new one. *)

val load_dir : string -> t
(** Read [dir/sweep] back; bytes after the stream are corruption.
    @raise Corpus.Io.Corrupt on a damaged file. *)
