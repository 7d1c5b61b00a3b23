(** Render every table and figure of the paper from a pipeline run.
    Each function returns the finished text block; {!full_report}
    concatenates them in paper order. *)

val table1 : Pipeline.t -> string
(** Dataset summary: host records, distinct certificates, distinct
    moduli, vulnerable counts. *)

val table2 : unit -> string
(** The 37 notified vendors by response category. *)

val table3 : Pipeline.t -> string
(** Earliest (EFF 07/2010) vs latest (Censys) scan summary. *)

val table4 : Pipeline.t -> string
(** Per-protocol hosts / RSA hosts / vulnerable hosts. *)

val table5 : Pipeline.t -> string
(** OpenSSL-fingerprint classification per vendor. *)

val figure1 : Pipeline.t -> string
(** Total and vulnerable hosts over time, all sources. *)

val figure2 : Pipeline.t -> string
(** The k-subset batch GCD: how this run swept (one product tree,
    kept as a segment forest or cut into shards), the paper's k x k
    split, and a check of the run's findings: {!figure2_sweeps} over {!figure2_sample} must
    be {!Batchgcd.Batch_gcd.findings_equal} to [findings] for both
    the single tree and the k = 4 split (IDENTICAL, else DIFFER). *)

val figure2_sample : Pipeline.t -> int array
(** Corpus ids of every flagged modulus (each finding's index) and of
    the first 256 unflagged ones, in corpus order. A modulus sharing
    a prime with a flagged one is flagged itself, so a sweep of this
    sample finds exactly the run's findings. *)

val figure2_sweeps :
  Pipeline.t ->
  int array ->
  Batchgcd.Batch_gcd.finding list * Batchgcd.Batch_gcd.finding list
(** [figure2_sweeps t ids] runs the single-tree and the k = 4 subset
    sweeps over the corpus moduli at [ids], with finding indexes
    mapped back to corpus ids. *)

val figure3 : Pipeline.t -> string
(** Juniper series, with advisory and Heartbleed annotations and the
    Section 4.1 transition counts. *)

val figure4 : Pipeline.t -> string
(** Innominate. *)

val figure5 : Pipeline.t -> string
(** IBM nine-prime devices. *)

val figure6 : Pipeline.t -> string
(** Cisco small-business lines, aggregate. *)

val figure7 : Pipeline.t -> string
(** Cisco end-of-life timeline vs per-model populations. *)

val figure8 : Pipeline.t -> string
(** HP iLO. *)

val figure9 : Pipeline.t -> string
(** The ten no-response vendors. *)

val figure10 : Pipeline.t -> string
(** Newly vulnerable vendors since 2012. *)

val rimon_section : Pipeline.t -> string
(** Detected ISP key substitution (Section 3.3.3). *)

val bit_error_section : Pipeline.t -> string
(** Non-well-formed moduli (Section 3.3.5). *)

val overlap_section : Pipeline.t -> string
(** Cross-vendor shared-prime overlaps (Dell/Xerox, IBM/Siemens). *)

val response_correlation_section : Pipeline.t -> string
(** Section 5.2: response category vs vulnerable-population decline,
    with a Spearman rank correlation. *)

val full_report : Pipeline.t -> string
