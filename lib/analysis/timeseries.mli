(** Longitudinal series: per-scan totals and vulnerable counts, whole-
    internet or per vendor — the data behind Figures 1, 3-6 and 8-10.

    Series are read from interned scans ({!Fingerprint.Scan_ids}): a
    record is vulnerable when its modulus id is in the flagged set,
    and a vendor or model series is one key of a {!table} that counts
    every key in one pass over the records. Intermediate-certificate
    records are never counted. *)

type point = {
  date : X509lite.Date.t;
  source : Netsim.Scanner.source;
  total : int;  (** fingerprinted hosts in this scan *)
  vulnerable : int;  (** of which served a factorable modulus *)
}

type series = { name : string; points : point list }

val overall :
  vulnerable:Corpus.Id_set.t -> Fingerprint.Scan_ids.t list -> series
(** Total hosts and vulnerable hosts per scan (Figure 1). *)

type keyed = {
  ids : Fingerprint.Scan_ids.t;
  keys : int array;
      (** per record: index of its key (vendor or model) in the
          table's names, or [-1] for none *)
}

type table
(** Per-scan totals and vulnerable counts for every key at once. *)

val tabulate :
  names:string array -> vulnerable:Corpus.Id_set.t -> keyed list -> table
(** One pass over the records of the keyed scans. *)

val names : table -> string array
(** Key index -> name. *)

val index : table -> string -> int option
(** The key index of a name. *)

val series : table -> string -> series
(** The series of one key. A name no record carries gives the
    all-zero series. *)

val peak_total : series -> int
val peak_vulnerable : series -> int

val value_at : series -> X509lite.Date.t -> point option
(** The point of the scan closest to the date (within 45 days). *)

val largest_vulnerable_drop : series -> (X509lite.Date.t * int) option
(** The scan-over-scan decrease with the largest absolute size:
    [(date of the lower scan, size of the drop)]. The paper's
    Heartbleed observation is that this lands on 04-05/2014. *)
