(** Shared-prime extrapolation (paper Section 3.3.2): pool the prime
    factors of certificates already identified by subject rules, then
    label any factored modulus built from a pooled prime with the
    pool's vendor. This is how the paper labeled the IP-octet
    Fritz!Box certificates and the vendorless McAfee consoles, and how
    the Dell/Xerox and IBM/Siemens overlaps surfaced. *)

type t

val build : (Factored.t * string option) list -> t
(** [build entries]: each factored modulus with its subject-rule
    vendor, if any. *)

val label_modulus : t -> Factored.t -> string option
(** The pool vendor for a factored modulus: the unique vendor owning
    either prime. [None] when unlabeled or ambiguous. *)

val extrapolated : t -> (Factored.t * string) list
(** Every entry that had no subject label but gains one through the
    pools. *)

val overlaps : t -> (string * string * Bignum.Nat.t) list
(** Vendor pairs that share a prime, with a witness prime — the
    Dell/Xerox and IBM/Siemens stories. Each unordered pair reported
    once. *)

val entries : t -> (Factored.t * string option) list
(** The labeled input entries, as given to {!build}; the pools are a
    deterministic function of these. *)
