(** Detection of ISP key substitution — the Internet Rimon
    man-in-the-middle (paper Section 3.3.3): one fixed public key
    appearing across many IP addresses inside certificates whose other
    fields differ and whose signatures no longer verify. *)

type detection = {
  modulus : Bignum.Nat.t;
  ips : Netsim.Ipv4.t list;  (** distinct addresses serving the key *)
  distinct_subjects : int;
  invalid_signature_fraction : float;
}

val detect :
  ?min_ips:int -> Corpus.Store.t -> Scan_ids.t list -> detection list
(** [detect store scans] groups records by modulus id ([store] holds
    every id the scans carry) and reports keys served from at least
    [min_ips] (default 10) distinct addresses with at least two
    distinct subjects and a majority of invalid signatures — the
    substitution signature. Intermediate-certificate records are
    ignored (a CA key legitimately appears at many addresses but with
    a single subject). Sorted by IP count, largest first; ties in id
    order. Each certificate's signature is verified once, and only
    for keys that reach [min_ips] addresses. This is
    [detections (add store (empty ?min_ips ()) scans)]. *)

(** {2 Folding scans in}

    The detector's per-key aggregates — record count, distinct
    addresses, distinct certificates and their subjects, invalid
    signatures — kept so that a fresh scan's records fold in without
    rereading the old ones. *)

type tally

val empty : ?min_ips:int -> unit -> tally
(** No records yet; [min_ips] as for {!detect}. *)

val add : Corpus.Store.t -> tally -> Scan_ids.t list -> tally
(** [add store t scans] folds the records of [scans] into [t]. [store]
    holds every modulus id of [t] and of [scans]. [t] is not modified
    and stays valid. Only keys that gain records are re-judged. *)

val detections : tally -> detection list
(** The detections over every record folded in, ordered as by
    {!detect}. *)
