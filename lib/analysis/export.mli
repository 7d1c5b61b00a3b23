(** Plain-text serialization of scan corpora and analysis results, so
    downstream tooling (or a rerun of [weakkeys factor]) can consume a
    study without rebuilding the world. *)

val host_records_csv :
  X509lite.Cert_store.t -> Fingerprint.Scan_ids.t list -> string
(** One row per host record:
    [source,date,ip,cert_fingerprint,modulus_hex,intermediate]. The
    fingerprint is read from the certificate table by id. *)

val moduli_lines : Bignum.Nat.t array -> string
(** One hex modulus per line — the input format of [weakkeys factor]. *)

val series_csv : Timeseries.series -> string
(** [date,source,total,vulnerable] rows. *)

val findings_csv : Batchgcd.Batch_gcd.finding list -> string
(** [modulus_hex,divisor_hex] rows. *)

val parse_moduli : string -> Bignum.Nat.t array
(** Inverse of {!moduli_lines}; skips blank and [#] comment lines.
    @raise Invalid_argument on malformed numbers. *)
