(** The attribution pass interface.

    A pass is one fingerprinting technique packaged behind a uniform
    surface: a name, the names of the passes whose evidence it needs,
    and a rule over a shared read-only {!Ctx.t}. Adding a technique
    to the study means writing one pass and registering it
    ({!Registry}) — the pipeline, report and CLI pick it up without
    modification.

    {2 Full and delta rules}

    A {!Full} rule reads the whole context on every run. A {!Delta}
    rule also gets a {!Delta.t}: what is fresh in the context since
    its parent run. Its result carries the pass's private state as
    [resume], the same rule closed over that state; the next run
    ({!Pipeline.extend} upstream) calls [resume] with the new context
    and delta, and pays for the delta only. A delta rule has one
    implementation: the full run is the rule applied to an empty
    parent with {!Delta.everything}, and the registry falls back to
    exactly that whenever a pass has no parent result.

    The parent's result must stay usable after the child's run, since
    a pipeline value stays usable after {!Pipeline.extend}: per-id
    state lives in persistent values, in arrays that a run copies
    before it writes, never in tables updated in place. *)

module Ctx : sig
  (** Everything a technique may read, assembled once by the pipeline
      before any pass runs. Passes execute concurrently on the domain
      pool, so treat every component as read-only; private scratch
      state (local stores, tables) is fine. *)
  type t = {
    store : Corpus.Store.t;  (** interned corpus: modulus -> dense id *)
    corpus : Bignum.Nat.t array;  (** [corpus.(id)] is the modulus *)
    findings : Batchgcd.Batch_gcd.finding list;
        (** batch-GCD output; a finding's [index] is its store id *)
    factored : Factored.t list;  (** findings split into p * q *)
    factored_index : Factored.t option array;  (** per store id *)
    unrecovered : Bignum.Nat.t list;
        (** flagged moduli that did not split into two primes *)
    scans : Scan_ids.t list;
        (** all raw scans, every record's certificate and modulus
            interned *)
    certs : X509lite.Cert_store.t;
        (** certificate id -> certificate and fingerprint: exactly the
            certificates of [scans], ids in first-seen order *)
    modulus_bits : int;  (** the world's RSA modulus size *)
  }
end

module Delta : sig
  (** What a context holds beyond its parent's. Ids only grow, so
      freshness is an id bound; findings only grow too, and an old
      finding can only change its divisor. *)
  type t = {
    moduli_from : int;  (** store ids at or above this are fresh *)
    certs_from : int;  (** certificate ids at or above this are fresh *)
    scans : Scan_ids.t list;
        (** the fresh scans, in order; [Ctx.scans] ends with them *)
    findings : Batchgcd.Batch_gcd.finding list;
        (** findings that are new or whose divisor changed *)
  }

  val everything : Ctx.t -> t
  (** The delta from an empty parent: every id, scan and finding of the
      context is fresh. *)
end

type result = {
  evidence : Evidence.t list;
      (** every claim of the pass for this context (not only the new
          ones), in a deterministic order — the scheduler inserts them
          verbatim *)
  artifacts : Attribution.artifact list;
      (** whole-technique outputs for the report (at most one each) *)
  resume : delta_rule option;
      (** a delta rule's private state, closed over by the rule: run
          it on the next context with the delta since this one.
          [None] for a full rule. *)
}

and delta_rule = Ctx.t -> Delta.t -> Attribution.t -> result

type rule =
  | Full of (Ctx.t -> Attribution.t -> result)
      (** rerun over the whole context every time *)
  | Delta of delta_rule
      (** the rule applied to an empty parent; later runs go through
          the previous result's [resume] *)

type t = {
  name : string;  (** unique registry key, kebab-case *)
  deps : string list;
      (** passes whose evidence must be in the table before the rule
          runs; the scheduler orders and parallelizes from these *)
  doc : string;  (** one-line description for [weakkeys_cli passes] *)
  rule : rule;
      (** [attr] holds the evidence of every completed dependency (and
          possibly unrelated passes); read it via the query functions,
          never mutate it — the scheduler owns all writes. A delta
          rule's state may depend only on the context, not on [attr]:
          the evidence of its deps is not delta-tracked. *)
}

val empty_result : result

val extends : t -> string
(** How a pass follows {!Pipeline.extend}: ["delta"] or ["full"]. *)
