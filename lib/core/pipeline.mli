(** The end-to-end study: simulate the internet, aggregate six years of
    scans, batch-GCD the full key corpus, run the attribution passes,
    and expose labeled, queryable results. This is the library's main
    entry point; {!Report} renders every table and figure from it.

    The pipeline is a chain of named stages
    (scan → intern → batchgcd → fingerprint → index → attribution) run
    through the {!Stage} graph runner. The scan stage interns every
    record once: its certificate to a dense id in an
    {!X509lite.Cert_store} (one fingerprint per distinct certificate)
    and its modulus to a dense id in a {!Corpus.Store}. Everything
    downstream — passes, statistics, labels, series — reads those ids
    through id-keyed arrays and bitsets, and the per-record vendor
    resolution behind the report's series is a lazy {!view} built
    once per pipeline. The expensive GCD stage keeps its
    product-tree forest ({!Batchgcd.Incremental.t}) and can checkpoint
    it to disk; {!extend} folds a fresh scan snapshot into an existing
    pipeline paying only for the delta.

    The attribution stage replaces the former hand-written
    fingerprint/label chain: every technique is a registered
    {!Fingerprint.Pass.t} ({!Fingerprint.Registry.builtin}),
    topologically scheduled by declared deps, run concurrently on the
    {!Parallel.Pool} where independent, and merged into one typed
    {!Fingerprint.Attribution.t} evidence table. Per-pass wall clocks
    appear in {!type-t.timings} as ["pass:NAME"] entries. The stage is
    cheap next to the batch GCD and always runs; only the GCD artifact
    is checkpointed. *)

type gcd_state =
  | Flat of Batchgcd.Incremental.t
      (** the segment forest of {!Batchgcd.Incremental.create} *)
  | Sharded of Batchgcd.Sharded.t
      (** runs with [?shards]: one forest whose segments stay inside
          power-of-two id ranges, extended chunk by chunk at their
          boundaries *)
(** The cached GCD artifact. {!extend} continues in whichever mode the
    state is in; findings are exactly equal either way. The functions
    below are the one place that chooses between the two, for the
    pipeline and the CLI's [ingest]/[extend] alike. *)

val gcd_create :
  pool:Parallel.Pool.t -> ?shards:int -> Bignum.Nat.t array -> gcd_state
(** One batch-GCD sweep over distinct moduli. Without [shards] the
    forest is {!Batchgcd.Incremental.create}'s; with it, the forest is
    cut at {!Batchgcd.Sharded.stride_for} [~shards] (a
    {!Batchgcd.Sharded.create}). Findings are the same either way.
    @raise Invalid_argument when [shards < 1]. *)

val gcd_extend :
  pool:Parallel.Pool.t -> gcd_state -> Bignum.Nat.t array -> gcd_state
(** Fold moduli that are new to the corpus in, in the state's own
    mode; findings equal a fresh sweep over the union. *)

val gcd_findings : gcd_state -> Batchgcd.Batch_gcd.finding list
(** In corpus-index order. *)

val gcd_corpus : gcd_state -> Bignum.Nat.t array
(** Every modulus swept so far, in index order (a fresh array). *)

val gcd_corpus_size : gcd_state -> int
val gcd_segment_count : gcd_state -> int

val save_gcd : out_channel -> gcd_state -> unit
(** The state as one stream: a kind tag, then the forest's own
    checkpoint ({!Batchgcd.Incremental.save} or
    {!Batchgcd.Sharded.save}). It is the body of the pipeline's
    [batchgcd.ckpt] and the whole of the CLI's [gcd.ckpt]. *)

val load_gcd : in_channel -> gcd_state
(** Read {!save_gcd}'s stream. Call {!Corpus.Io.expect_end} after it
    when the stream is the whole file.
    @raise Corpus.Io.Corrupt on an unknown tag or a damaged forest.
    @raise End_of_file on a truncated one. *)

type view = {
  vendors : Analysis.Timeseries.table;
      (** monthly scans x vendor: total and vulnerable hosts *)
  models : Analysis.Timeseries.table;  (** monthly scans x model id *)
  by_vendor : Analysis.Timeseries.keyed list;
      (** every monthly record's vendor, as an index into the names of
          [vendors] ([-1] unlabeled) *)
}
(** Every monthly record resolved once — vendor, model, vulnerability —
    and counted for every vendor and model in one pass. The vendor is
    the certificate's subject-rule label, or for a certificate that
    matches no rule what its modulus itself proves: IBM-clique
    membership, then shared-prime extrapolation. *)

type t = {
  world : Netsim.World.t;
  scans : Netsim.Scanner.scan list;  (** all raw scans *)
  monthly : Netsim.Scanner.scan list;
      (** one representative, chain-excluded scan per month *)
  protocol_snapshots : Netsim.Scanner.protocol_snapshot list;
  https_moduli : Bignum.Nat.t array;  (** distinct, from HTTPS scans *)
  https_ids : Corpus.Id_set.t;  (** the store ids of [https_moduli] *)
  store : Corpus.Store.t;
      (** modulus → dense id; ids are corpus positions *)
  certs : X509lite.Cert_store.t;
      (** certificate → dense id and its one fingerprint; {!extend}
          keeps the parent's ids *)
  scan_ids : Fingerprint.Scan_ids.t list;
      (** [scans] with every record's certificate and modulus id *)
  monthly_ids : Fingerprint.Scan_ids.t list;
      (** [monthly] with every record's certificate and modulus id *)
  corpus : Bignum.Nat.t array;
      (** distinct moduli fed to batch GCD (HTTPS + SSH + mail), in
          store-id order: [corpus.(id)] is the modulus with that id *)
  gcd : gcd_state;
      (** cached GCD state: segment forest + findings; feed to
          {!extend} or serialize via {!save_gcd} *)
  findings : Batchgcd.Batch_gcd.finding list;
  factored : Fingerprint.Factored.t list;
  unrecovered : Bignum.Nat.t list;
      (** flagged moduli that did not split into two primes *)
  attribution : Fingerprint.Attribution.t;
      (** the merged evidence table every query below reads *)
  pass_results : (string * Fingerprint.Pass.result) list;
      (** each pass's result ({!Fingerprint.Registry.outcome}): the
          state {!extend} resumes the delta passes from. *)
  (* Precomputed id-keyed indexes (caches; use the query functions
     below). *)
  vuln_index : Corpus.Id_set.t;
  factored_index : Fingerprint.Factored.t option array;  (** per store id *)
  view : view Lazy.t;
      (** built on first use by {!view}; {!extend} never builds it *)
  timings : Stage.timing list;  (** per-stage wall clock, in order *)
}

val run :
  ?progress:(string -> unit) ->
  ?shards:int ->
  ?domains:int ->
  ?checkpoint_dir:string ->
  ?only_passes:string list ->
  Netsim.World.config -> t
(** Build the world and run the whole measurement pipeline. The batch
    GCD is one product-tree sweep over the corpus, its tree kept as a
    segment forest for {!extend} ({!Batchgcd.Incremental.create}).
    [shards] switches the GCD stage to the id-range-sharded driver
    ({!Batchgcd.Sharded}): the same sweep, its tree cut into
    at most that many power-of-two-stride shards — findings are
    exactly those of the unsharded path. [domains] sizes the
    persistent {!Parallel.Pool} used for key generation, the
    level-parallel tree kernels and the attribution passes (default:
    the hardware's recommended domain count, overridable via the
    [WEAKKEYS_DOMAINS] environment variable).
    [checkpoint_dir] enables checkpoint/resume for the GCD stage: its
    forest is written there as [batchgcd.ckpt], and a rerun over the
    identical corpus restores it instead of recomputing; the
    attribution stage always runs. [only_passes] restricts the
    attribution stage to the named passes closed over their deps
    ({!Fingerprint.Registry.select}); report sections whose pass did
    not run render as explicitly skipped.
    @raise Fingerprint.Registry.Unknown_pass on an unknown pass name. *)

val of_world :
  ?progress:(string -> unit) -> ?shards:int -> ?domains:int ->
  ?checkpoint_dir:string -> ?only_passes:string list ->
  Netsim.World.t -> t
(** Same, reusing an already-built world. *)

val of_scans :
  ?progress:(string -> unit) -> ?shards:int -> ?domains:int ->
  ?checkpoint_dir:string -> ?only_passes:string list ->
  Netsim.World.t -> Netsim.Scanner.scan list -> t
(** Same, from an explicit scan list (the snapshot-ingest entry point:
    pair with {!extend} to fold in later snapshots). *)

val extend : ?domains:int -> t -> Netsim.Scanner.scan list -> t
(** [extend t new_scans] folds a fresh batch of scans into the
    pipeline: new distinct moduli are interned after the existing ids,
    the cached product-tree forest is extended with one delta tree
    ({!gcd_extend}: no old tree is rebuilt, and a sharded state takes
    one delta tree per shard-boundary chunk). Nothing is read from or
    written to a checkpoint; {!save_gcd} writes the result's forest
    where a caller wants one. Findings that kept their divisor
    keep their factorization, and the delta attribution passes
    ([subject-rules], [bit-errors], [mitm-substitution]) resume from
    [t]'s pass results with the delta: the fresh moduli, certificates
    and scans, and the new or changed findings
    ({!Fingerprint.Pass.Delta.t}). The other passes rerun over the
    combined corpus, as does any pass [t] holds no result for (so a
    [t] built with [only_passes] gains every builtin pass).
    Only the new scans' records are interned: the
    certificate and modulus ids of [t] stay the same, and only new
    certificates are fingerprinted. The monthly picks are updated,
    not re-derived ({!Analysis.Dataset.extend_monthly_ids}): only a
    new scan that becomes its month's pick is chain-excluded, and the
    HTTPS moduli grow by the new scans' first observations. Findings
    are exactly those of a from-scratch run over the union. [t]
    itself is not mutated and remains usable. *)

(** {1 Queries} *)

val is_vulnerable : t -> Bignum.Nat.t -> bool
(** Membership in the batch-GCD-flagged modulus set. *)

val id_of : t -> Bignum.Nat.t -> int option
(** Store id of a modulus seen by this pipeline. *)

val view : t -> view
(** The resolved monthly records, built on the first call. Like any
    [Lazy.t], do not force it from two domains at once. *)

val vendor_series : t -> string -> Analysis.Timeseries.series
(** Monthly totals and vulnerable hosts of one vendor's records. *)

val model_series : t -> string -> Analysis.Timeseries.series
(** Monthly totals and vulnerable hosts of one product line (Figure 7). *)

val transitions : t -> string -> Analysis.Transitions.summary
(** Per-IP vulnerability transitions of one vendor's monthly records. *)

val vulnerable_https_host_records : t -> int
val vulnerable_https_certs : t -> int

val vulnerable_by_protocol :
  t -> (Netsim.Scanner.protocol * int) list
(** Vulnerable host counts per protocol snapshot (Table 4). *)

val labeled_factored :
  t -> (Fingerprint.Factored.t * string option) list
(** Factored moduli with their final vendor labels (full
    {!Fingerprint.Attribution.vendor_of} merge). *)

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

val majority_vendor : (string * int) list -> string option
(** Winner of a vendor vote tally: highest count, ties broken by the
    lexicographically smallest vendor name — deterministic no matter
    the ballot order (re-exported from {!Fingerprint.Attribution}). *)
