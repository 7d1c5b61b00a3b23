(** A scan whose records carry their interned ids: per record, the
    certificate's {!X509lite.Cert_store} id and the modulus's
    {!Corpus.Store} id. The pipeline interns every record once, at the
    scan stage; passes, statistics, series and exports then read ints
    instead of re-hashing certificates and moduli. *)

type t = {
  scan : Netsim.Scanner.scan;
  cert_ids : int array;  (** per record: certificate id *)
  modulus_ids : int array;  (** per record: modulus id *)
}

val intern :
  X509lite.Cert_store.t -> Corpus.Store.t -> Netsim.Scanner.scan -> t
(** Intern every record of a scan, in record order: a certificate or
    modulus not seen before gets the next id of its table. *)

val sub : t -> int array -> t
(** [sub s keep] keeps the records at the indices [keep], in that
    order, with their ids. *)

val grow : 'a array -> int -> 'a -> 'a array
(** [grow a n fill] is a fresh copy of the per-id array [a], grown to
    [n] slots with [fill] (ids only grow). A delta pass writes to such
    a copy, so the parent's array stays as it was. *)
