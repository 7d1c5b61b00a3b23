(** Corpus assembly (paper Sections 3.1 and 3.2 preprocessing):
    certificate-chain exclusion, representative-scan selection, and
    dataset statistics. *)

val exclude_intermediates :
  Netsim.Scanner.scan -> Netsim.Scanner.scan
(** Reconstruct chains per IP by matching issuer and subject names and
    keep only the lowest certificate — undoing the Rapid7 artifact of
    reporting unchained intermediates. *)

val representative_monthly :
  Netsim.Scanner.scan list -> Netsim.Scanner.scan list
(** One scan per calendar month, chain-excluded, choosing the highest-
    fidelity source available that month (Censys > Rapid7 > Ecosystem
    > P&Q > EFF), chronological. *)

val representative_monthly_ids :
  Fingerprint.Scan_ids.t list -> Fingerprint.Scan_ids.t list
(** {!representative_monthly} over interned scans: the same scans and
    records, each record keeping its ids, so nothing is re-interned.
    It is [extend_monthly_ids []]. *)

val extend_monthly_ids :
  Fingerprint.Scan_ids.t list ->
  Fingerprint.Scan_ids.t list ->
  Fingerprint.Scan_ids.t list
(** [extend_monthly_ids picks fresh] updates the monthly picks of some
    scans with scans that come after them:
    [extend_monthly_ids (representative_monthly_ids pre) suf] is
    [representative_monthly_ids (pre @ suf)]. A fresh scan displaces
    its month's pick only at strictly higher source priority. Only a
    fresh scan that becomes a pick is chain-excluded, and every pick
    it does not displace is returned as the same physical value, so
    an update costs the fresh scans' chain exclusion, not every
    month's. *)

type stats = {
  host_records : int;
  distinct_certs : int;  (** distinct certificate ids *)
  distinct_moduli : int;  (** distinct modulus ids *)
}

val stats : Fingerprint.Scan_ids.t list -> stats
(** Record count and distinct ids over the given interned scans. *)
