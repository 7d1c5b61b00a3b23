(** The vendor catalogue: the 37 vendors notified about weak TLS/SSH
    RSA keys in 2012 (paper Table 2), their disclosure responses, and
    the vendors found newly vulnerable in 2016 (Section 4.4). *)

type response =
  | Public_advisory
  | Private_response
  | Auto_response
  | No_response
  | Not_notified  (** not part of the 2012 disclosure (e.g. Huawei) *)

type t = {
  name : string;
  response : response;
  advisory_date : X509lite.Date.t option;
      (** when a public security advisory was released, if ever *)
  notified_2012 : bool;
  ssh_only : bool;
      (** vulnerability concerned SSH host keys rather than TLS *)
}

val response_to_string : response -> string

val table2 : t list
(** The 37 vendors of Table 2, in the paper's column order. *)

val all : t list

val find : string -> t
(** @raise Not_found for unknown vendor names. *)

