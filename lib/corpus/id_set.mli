(** Growable bitset over dense {!Store} ids.

    The int-keyed replacement for the membership Hashtbls the pipeline
    used to key on modulus limbs: one bit per interned id. *)

type t

val create : ?size:int -> unit -> t
(** Empty set. [size] is a capacity hint in ids. *)

val copy : t -> t
(** An independent set with the same ids. *)

val add : t -> int -> unit
(** @raise Invalid_argument on a negative id. *)

val mem : t -> int -> bool
(** [false] for ids never added (including ids past the capacity). *)

val cardinal : t -> int
(** Number of distinct ids added. *)
