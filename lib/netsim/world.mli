(** The simulated internet: device populations evolving month by month
    from 2005 through May 2016, with deterministic key material.

    Build order: (1) population dynamics decide, per product line, when
    devices deploy, die, regenerate certificates and change IP; (2) key
    material and certificates are generated for every device epoch on a
    domain pool; (3) {!Scanner} replays scan sources over the result.

    Everything is a pure function of the config seed. *)

type config = {
  seed : string;
  scale : float;  (** population multiplier; 1.0 = the DESIGN.md targets *)
  modulus_bits : int;  (** RSA modulus size (default 96) *)
  rimon_frac : float;
      (** fraction of generic hosts behind the key-substituting ISP *)
  domains : int option;  (** domain-pool width for key generation *)
}

val default_config : config
(** seed "weakkeys-imc16", scale 1.0, 96-bit moduli, rimon 0.0012. *)

type epoch = {
  from_date : X509lite.Date.t;
  key : Rsa.Keypair.private_key;
  cert : X509lite.Certificate.t;
}

type device = {
  dev_id : string;
  model : Device_model.t;
  deploy : X509lite.Date.t;
  death : X509lite.Date.t option;
  weak_unit : bool;  (** runs flawed firmware (not necessarily factorable) *)
  epochs : epoch array;  (** certificate history, oldest first *)
  ips : (X509lite.Date.t * Ipv4.t) array;  (** IP history, oldest first *)
  ssh_key : Rsa.Keypair.private_key option;
}

type t

val build : ?progress:(string -> unit) -> config -> t
val config : t -> config
val devices : t -> device array
val ca_key : t -> Rsa.Keypair.private_key
val ca_cert : t -> X509lite.Certificate.t
val rimon_public : t -> Rsa.Keypair.public
(** The fixed 1024-bit-equivalent key the Internet Rimon middlebox
    substitutes into its customers' certificates. *)

val is_rimon_customer : t -> device -> bool

val ssh_snapshot_date : X509lite.Date.t
(** 2015-10-29, the Censys SSH scan of Table 4. *)

val alive : device -> X509lite.Date.t -> bool
val cert_at : device -> X509lite.Date.t -> X509lite.Certificate.t option
val ip_at : device -> X509lite.Date.t -> Ipv4.t

(** {1 Ground truth} — the oracle the pipeline's output is tested
    against; a real measurement study has no such thing. *)

val all_tls_moduli : t -> Bignum.Nat.t array
(** Distinct moduli across every TLS certificate epoch. *)

val factorable_ground_truth : t -> (Bignum.Nat.t -> bool)
(** Whether a modulus shares at least one prime factor with some other
    distinct modulus in the full corpus (TLS and SSH keys combined). *)

val factors_of : t -> Bignum.Nat.t -> (Bignum.Nat.t * Bignum.Nat.t) option
(** The two primes of a corpus modulus (TLS or SSH); [None] for
    moduli the world never generated (e.g. corrupted ones). *)
