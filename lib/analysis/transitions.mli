(** Per-IP vulnerability transitions (paper Section 4.1, Juniper):
    across the monthly representative scans, track each IP that ever
    served a vendor's certificate and count moves between serving a
    vulnerable key and a non-vulnerable key. *)

type summary = {
  ips_ever : int;  (** IPs that ever served this vendor's certificate *)
  ips_vulnerable_ever : int;
  to_ok : int;  (** IPs with exactly one vulnerable -> ok move *)
  to_vulnerable : int;  (** IPs with exactly one ok -> vulnerable move *)
  flapping : int;  (** IPs with more than one transition *)
}

val for_key :
  vulnerable:Corpus.Id_set.t -> Timeseries.keyed list -> int -> summary
(** [for_key ~vulnerable keyed k]: the transitions of the IPs whose
    records carry key [k] (a vendor index), vulnerable meaning the
    record's modulus id is in [vulnerable]. *)
