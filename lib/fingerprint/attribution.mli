(** The per-store-id attribution table.

    Passes ({!Pass}, {!Registry}) deposit typed {!Evidence.t} claims
    and whole-technique artifacts here; everything downstream
    (pipeline queries, the report, the CLI) reads attributions from
    this table instead of from per-technique pipeline fields.

    {2 Merge policy}

    {!vendor_of} resolves an id deterministically: among the
    vendor-bearing evidence for the id, the technique with the
    smallest {!Evidence.rank} wins (subject rules > prime clique >
    shared-prime extrapolation > heuristics — the precedence the
    hand-written labeling chain applied); within that technique the
    per-vendor vote weights are summed and {!majority_vendor} picks
    the heaviest vendor, ties broken by the lexicographically
    smallest name. The result is independent of evidence insertion
    order. *)

type t

val create : ?size:int -> unit -> t
(** [size] is a hint for the initial id capacity. *)

val add : t -> Evidence.t -> unit
(** Record one claim. Growable: any non-negative subject id works. *)

val evidence : t -> int -> Evidence.t list
(** All evidence for a store id, in insertion order. *)

val evidence_count : t -> int
(** Total number of claims in the table. *)

val attributed : t -> Corpus.Id_set.t
(** Ids carrying at least one vendor-bearing claim (fresh set). *)

val majority_vendor : (string * int) list -> string option
(** Winner of a vendor vote tally: highest count, ties broken by the
    lexicographically smallest vendor name — deterministic no matter
    the ballot order. *)

val vendor_of : ?use:Evidence.technique list -> t -> int -> string option
(** Merged vendor for an id, per the policy above. [use] restricts
    the vote to the given techniques (default: all) — e.g.
    [~use:[Prime_clique; Shared_prime]] reproduces the labeling
    fallback for records whose certificate matched no subject rule. *)

val model_of : t -> int -> string option
(** Product-line claim accompanying the winning vendor, when any
    (lexicographically smallest across the winning evidence). *)

(** {2 Artifacts}

    Whole-technique outputs that are not per-modulus claims: the
    report renders these directly. A pass deposits at most one of its
    artifact; re-deposits shadow earlier ones. *)

type artifact =
  | Cert_labels of (string, Rules.label option) Hashtbl.t
      (** certificate fingerprint -> subject/content rule label *)
  | Cliques of Ibm_clique.clique list
  | Shared of Shared_prime.t
  | Mitm of Rimon.detection list
  | Bit_error_triage of { suspects : Bignum.Nat.t list; near_corpus : int }
      (** non-well-formed flagged moduli, and how many sit one bit
          flip from a corpus member *)
  | Openssl_table of (string * Openssl_fp.verdict * int) list

val add_artifact : t -> artifact -> unit

val cert_labels : t -> (string, Rules.label option) Hashtbl.t option
val cliques : t -> Ibm_clique.clique list option
val shared : t -> Shared_prime.t option
val mitm : t -> Rimon.detection list option
val bit_error_triage : t -> (Bignum.Nat.t list * int) option
val openssl_table : t -> (string * Openssl_fp.verdict * int) list option

(** {2 Equality and serialization} *)

val equal_evidence : t -> t -> bool
(** Per-id evidence lists are structurally equal (artifacts are not
    compared — they are deterministic functions of the same inputs).
    Used to assert pooled pass execution equals sequential. *)

val save : out_channel -> t -> unit

val load : subjects:int -> in_channel -> t
(** Read a table whose subject ids are below [subjects] (the corpus
    size).
    @raise Corpus.Io.Corrupt on malformed input, or on any subject id
    at or above [subjects]. *)
