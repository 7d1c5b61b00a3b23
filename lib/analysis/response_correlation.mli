(** Section 5.2: does the vendor's disclosure response predict end-user
    outcomes? The paper finds no correlation; this module quantifies
    the claim on the simulated corpus. *)

type outcome = {
  vendor : string;
  response : Netsim.Vendor.response;
  peak_vulnerable : int;
  final_vulnerable : int;
  decline_fraction : float;
      (** (peak - final) / peak; 0 when never vulnerable *)
}

val outcomes : Timeseries.table -> string list -> outcome list
(** Per-vendor peak and final vulnerable populations, read from a
    scans x vendor {!Timeseries.table}. *)

val by_category :
  outcome list -> (Netsim.Vendor.response * float * int) list
(** Mean decline fraction and vendor count per response category,
    strongest response first. *)

val spearman : outcome list -> float
(** Spearman rank correlation between response strength (public
    advisory > private > auto > none) and decline fraction, over
    vendors that were ever vulnerable. NaN with fewer than 3 points. *)
