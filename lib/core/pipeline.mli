(** The end-to-end study: simulate the internet, aggregate six years of
    scans, batch-GCD the full key corpus, run the attribution passes,
    and expose labeled, queryable results. This is the library's main
    entry point; {!Report} renders every table and figure from it.

    The pipeline is a chain of named stages
    (scan → intern → batchgcd → fingerprint → index → attribution) run
    through the {!Stage} graph runner: every distinct modulus is
    interned to a dense id in a {!Corpus.Store} and downstream indexes
    are id-keyed arrays and bitsets; the expensive GCD stage keeps its
    product-tree forest ({!Batchgcd.Incremental.t}) and can checkpoint
    it to disk; {!extend} folds a fresh scan snapshot into an existing
    pipeline paying only for the delta.

    The attribution stage replaces the former hand-written
    fingerprint/label chain: every technique is a registered
    {!Fingerprint.Pass.t} ({!Fingerprint.Registry.builtin}),
    topologically scheduled by declared deps, run concurrently on the
    {!Parallel.Pool} where independent, and merged into one typed
    {!Fingerprint.Attribution.t} evidence table. Per-pass wall clocks
    appear in {!type-t.timings} as ["pass:NAME"] entries, and with a
    checkpoint directory the whole table is content-addressed and
    restorable like the GCD artifact. *)

type gcd_state =
  | Flat of Batchgcd.Incremental.t
      (** the classic single-address-space segment forest *)
  | Sharded of Batchgcd.Sharded.t
      (** id-range-sharded arena-backed driver (runs with [?shards]) *)
(** The cached GCD artifact. {!extend} continues in whichever mode the
    state is in; findings are exactly equal either way. *)

val gcd_corpus_size : gcd_state -> int
val gcd_segment_count : gcd_state -> int

type t = {
  world : Netsim.World.t;
  scans : Netsim.Scanner.scan list;  (** all raw scans *)
  monthly : Netsim.Scanner.scan list;
      (** one representative, chain-excluded scan per month *)
  protocol_snapshots : Netsim.Scanner.protocol_snapshot list;
  https_moduli : Bignum.Nat.t array;  (** distinct, from HTTPS scans *)
  store : Corpus.Store.t;
      (** modulus → dense id; ids are corpus positions *)
  corpus : Bignum.Nat.t array;
      (** distinct moduli fed to batch GCD (HTTPS + SSH + mail), in
          store-id order: [corpus.(id)] is the modulus with that id *)
  gcd : gcd_state;
      (** cached GCD state: segment forest(s) + findings; feed to
          {!extend} or serialize via {!Batchgcd.Incremental.save} /
          {!Batchgcd.Sharded.save} *)
  findings : Batchgcd.Batch_gcd.finding list;
  factored : Fingerprint.Factored.t list;
  unrecovered : Bignum.Nat.t list;
      (** flagged moduli that did not split into two primes *)
  attribution : Fingerprint.Attribution.t;
      (** the merged evidence table every query below reads *)
  (* Precomputed id-keyed indexes (caches; use the query functions
     below). *)
  vuln_index : Corpus.Id_set.t;
  factored_index : Fingerprint.Factored.t option array;  (** per store id *)
  cert_fp : X509lite.Certificate.t -> string;
      (** per-run memoized certificate fingerprint (mutex-protected,
          safe from pool domains); bounded by this run's certificate
          population, unlike the former process global *)
  timings : Stage.timing list;  (** per-stage wall clock, in order *)
}

val run :
  ?progress:(string -> unit) ->
  ?k:int ->
  ?shards:int ->
  ?domains:int ->
  ?checkpoint_dir:string ->
  ?only_passes:string list ->
  Netsim.World.config -> t
(** Build the world and run the whole measurement pipeline. [k] is the
    subset count for the distributed batch GCD (default 16, the
    paper's value; clamped to the corpus size). [shards] switches the
    GCD stage to the id-range-sharded arena driver
    ({!Batchgcd.Sharded}, [k] is then ignored): the corpus is split
    into at most that many power-of-two-stride shards, swept two-tier
    with per-shard trees as independent pool jobs — findings are
    exactly those of the unsharded path. [domains] sizes the
    persistent {!Parallel.Pool} used for key generation, the k-subset
    fan-out, the level-parallel tree kernels and the attribution
    passes (default: the hardware's recommended domain count,
    overridable via the [WEAKKEYS_DOMAINS] environment variable).
    [checkpoint_dir] enables checkpoint/resume for the GCD and
    attribution stages: finished artifacts are written there, and a
    rerun over the identical inputs restores them instead of
    recomputing. [only_passes] restricts the attribution stage to the
    named passes closed over their deps
    ({!Fingerprint.Registry.select}); report sections whose pass did
    not run render as explicitly skipped.
    @raise Fingerprint.Registry.Unknown_pass on an unknown pass name. *)

val of_world :
  ?progress:(string -> unit) -> ?k:int -> ?shards:int -> ?domains:int ->
  ?checkpoint_dir:string -> ?only_passes:string list ->
  Netsim.World.t -> t
(** Same, reusing an already-built world. *)

val of_scans :
  ?progress:(string -> unit) -> ?k:int -> ?shards:int -> ?domains:int ->
  ?checkpoint_dir:string -> ?only_passes:string list ->
  Netsim.World.t -> Netsim.Scanner.scan list -> t
(** Same, from an explicit scan list (the snapshot-ingest entry point:
    pair with {!extend} to fold in later snapshots). *)

val extend :
  ?progress:(string -> unit) -> ?domains:int ->
  ?checkpoint_dir:string -> ?only_passes:string list ->
  t -> Netsim.Scanner.scan list -> t
(** [extend t new_scans] folds a fresh batch of scans into the
    pipeline: new distinct moduli are interned after the existing ids,
    the cached product-tree forest is extended with one delta tree
    ({!Batchgcd.Incremental.extend} — no old tree is rebuilt; a
    sharded state goes through {!Batchgcd.Sharded.extend}, one delta
    tree per touched shard), and the
    fingerprint/index/attribution stages rerun over the combined
    corpus. Findings are exactly those of a from-scratch run over the
    union. [t] itself is not mutated and remains usable. *)

(** {1 Queries} *)

val is_vulnerable : t -> Bignum.Nat.t -> bool
(** Membership in the batch-GCD-flagged modulus set. *)

val id_of : t -> Bignum.Nat.t -> int option
(** Store id of a modulus seen by this pipeline. *)

val vendor_of_record :
  t -> Netsim.Scanner.host_record -> string option
(** Full labeling: subject rules (with page content), then — for
    certificates matching no rule — what the record's modulus itself
    proves: IBM-clique membership, then shared-prime extrapolation. *)

val model_of_record :
  t -> Netsim.Scanner.host_record -> string option
(** Product-line id when determinable from the subject. *)

val vulnerable_https_host_records : t -> int
val vulnerable_https_certs : t -> int

val vulnerable_by_protocol :
  t -> (Netsim.Scanner.protocol * int) list
(** Vulnerable host counts per protocol snapshot (Table 4). *)

val labeled_factored :
  t -> (Fingerprint.Factored.t * string option) list
(** Factored moduli with their final vendor labels (full
    {!Fingerprint.Attribution.vendor_of} merge). *)

val suspected_bit_errors : t -> Bignum.Nat.t list
(** Flagged moduli that are not well-formed RSA moduli (empty when the
    [bit-errors] pass did not run). *)

val bit_error_summary : t -> (int * int) option
(** (suspect count, near-corpus count) from the bit-error triage
    artifact; [None] when the pass did not run. *)

(** {1 Derived views}

    What used to be bespoke pipeline fields, read from the pass
    artifacts in the attribution table. Option-returning views are
    [None] when the owning pass was excluded via [only_passes]. *)

val cliques : t -> Fingerprint.Ibm_clique.clique list
val shared : t -> Fingerprint.Shared_prime.t option
val rimon : t -> Fingerprint.Rimon.detection list

val openssl_table :
  t -> (string * Fingerprint.Openssl_fp.verdict * int) list option

val passes_run : t -> Stage.timing list
(** The ["pass:NAME"] timing entries, in execution order. *)

val majority_vendor : (string * int) list -> string option
(** Winner of a vendor vote tally: highest count, ties broken by the
    lexicographically smallest vendor name — deterministic no matter
    the ballot order (re-exported from {!Fingerprint.Attribution}). *)
