(** The attribution pass interface.

    A pass is one fingerprinting technique packaged behind a uniform
    surface: a name, the names of the passes whose evidence it needs,
    and a [run] over a shared read-only {!Ctx.t}. Adding a technique
    to the study means writing one pass and registering it
    ({!Registry}) — the pipeline, report and CLI pick it up without
    modification. *)

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

type result = {
  evidence : Evidence.t list;
      (** claims to merge into the attribution table; emit these in a
          deterministic order — the scheduler inserts them verbatim *)
  artifacts : Attribution.artifact list;
      (** whole-technique outputs for the report (at most one each) *)
}

type t = {
  name : string;  (** unique registry key, kebab-case *)
  deps : string list;
      (** passes whose evidence must be in the table before [run];
          the scheduler orders and parallelizes from these *)
  doc : string;  (** one-line description for [weakkeys_cli passes] *)
  run : Ctx.t -> Attribution.t -> result;
      (** [run ctx attr]: [attr] holds the evidence of every completed
          dependency (and possibly unrelated passes); read it via the
          query functions, never mutate it — the scheduler owns all
          writes *)
}

val empty_result : result
