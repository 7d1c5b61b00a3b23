(** Scan sources and host-record generation (paper Section 3.1).

    Five HTTPS scan campaigns with their real date ranges and
    methodology quirks replay over a {!World.t}:

    - EFF SSL Observatory: July and December 2010, Nmap-based, lowest
      coverage;
    - P&Q: the October 2011 scan of the original paper;
    - Ecosystem (Durumeric et al.): monthly June 2012 - January 2014;
    - Rapid7 Sonar: monthly October 2013 - May 2015; emits
      un-chained intermediate CA certificates as extra records;
    - Censys: monthly July 2015 - May 2016, highest coverage.

    Artifacts modeled: the Internet Rimon middlebox substituting its
    fixed public key into customer certificates, and rare bit errors
    corrupting a transmitted modulus. *)

type source = Eff | Pq | Ecosystem | Rapid7 | Censys

val source_name : source -> string
val all_sources : source list

val coverage : source -> float
(** Fraction of live hosts a scan from this source observes. *)

val schedule : source -> X509lite.Date.t list
(** Scan dates for the source, chronological (15th of each month). *)

val full_schedule : (source * X509lite.Date.t) list
(** Every (source, date) pair, chronological. Months where sources
    overlap contain several entries, as in the real aggregate. *)

type host_record = {
  source : source;
  date : X509lite.Date.t;
  ip : Ipv4.t;
  cert : X509lite.Certificate.t;
  is_intermediate : bool;
      (** Rapid7 artifact: an issuer certificate reported at the same
          IP without chain structure *)
  page_title : string option;
      (** identifying text from the device's HTTPS landing page, when
          the scanner fetched one (Section 3.3.1) *)
}

type scan = {
  scan_source : source;
  scan_date : X509lite.Date.t;
  records : host_record array;
}

val run_scan :
  ?bit_error_rate:float -> World.t -> source -> X509lite.Date.t -> scan
(** Replay one scan: every device alive on the date and covered by the
    source yields a record (plus artifacts). [bit_error_rate] is the
    per-record probability of a single-bit corruption of the modulus
    (default 1e-5). *)

val run_all : ?bit_error_rate:float -> World.t -> scan list
(** The whole corpus, chronological. *)

(** {1 Protocol snapshots} (Table 4) *)

type protocol = Https | Ssh | Pop3s | Imaps | Smtps

val protocol_name : protocol -> string

type protocol_snapshot = {
  protocol : protocol;
  snap_date : X509lite.Date.t;
  total_hosts : int;
  rsa_hosts : int;
  rsa_moduli : Bignum.Nat.t array;  (** with duplicates, as observed *)
}

val protocol_snapshots :
  ?pool:Parallel.Pool.t -> World.t -> protocol_snapshot list
(** One snapshot per protocol near the end of the study, in the order
    HTTPS, SSH, POP3S, IMAPS, SMTPS: HTTPS and SSH drawn from the
    device world (SSH host keys included), the mail protocols from an
    independent healthy population, one DRBG stream per protocol. The
    five snapshots run as independent jobs on [pool] (default: the
    process-wide pool); the result does not depend on its size. *)
