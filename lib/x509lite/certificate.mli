(** A structural model of X.509 certificates — everything the paper's
    fingerprinting pipeline reads (subject, issuer, SANs, validity,
    RSA public key, signature) over a canonical text encoding instead
    of DER. *)

type t = {
  serial : Bignum.Nat.t;
  subject : Dn.t;
  issuer : Dn.t;
  subject_alt_names : string list;
  not_before : Date.t;
  not_after : Date.t;
  public_key : Rsa.Keypair.public;
  signature : Bignum.Nat.t;
}

val self_sign :
  serial:Bignum.Nat.t -> subject:Dn.t -> ?subject_alt_names:string list ->
  not_before:Date.t -> not_after:Date.t -> key:Rsa.Keypair.private_key ->
  unit -> t
(** Issue a self-signed certificate (issuer = subject), the dominant
    case among the paper's vulnerable devices. *)

val sign_with :
  serial:Bignum.Nat.t -> subject:Dn.t -> ?subject_alt_names:string list ->
  not_before:Date.t -> not_after:Date.t -> subject_key:Rsa.Keypair.public ->
  issuer:Dn.t -> issuer_key:Rsa.Keypair.private_key -> unit -> t
(** Issue a CA-signed certificate. *)

val verify_signature : t -> Rsa.Keypair.public -> bool
(** Check the signature against a purported issuer key. For
    self-signed certificates pass [t.public_key]. *)

val is_self_signed : t -> bool
(** Issuer equals subject and the signature verifies under the
    certificate's own key. *)

val fingerprint : t -> string
(** SHA-256 over the full encoding, hex — the stable identity used to
    deduplicate certificates across scans. *)

val encode : t -> string
(** Full canonical text encoding (TBS plus signature line). *)

val decode : string -> t
(** Inverse of {!encode}. @raise Invalid_argument on malformed input. *)

val substitute_public_key : t -> Rsa.Keypair.public -> t
(** Replace only the public key and re-sign nothing — the Internet
    Rimon man-in-the-middle transformation (paper section 3.3.3): the
    rest of the certificate is untouched and the signature becomes
    invalid. *)

val pp : Format.formatter -> t -> unit
