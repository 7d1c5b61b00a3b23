(** X.500 distinguished names, as far as certificate fingerprinting
    needs them: an ordered list of attribute/value pairs with the
    ["CN=a, O=b"] textual form the paper quotes. *)

type attr = CN | O | OU | C | L | ST | Email | Unstructured of string

type t = (attr * string) list

val make : ?extra:(attr * string) list -> ?cn:string -> ?o:string ->
  ?ou:string -> unit -> t
(** Build a DN in CN, O, OU, extra order, skipping absent parts. *)

val get : t -> attr -> string option
(** First value for the attribute, if any. *)

val get_all : t -> attr -> string list

val common_name : t -> string option
val organization : t -> string option
val organizational_unit : t -> string option

val to_string : t -> string
(** ["CN=Default Common Name, O=Default Organization"]. Commas and
    backslashes inside values are backslash-escaped. *)

val of_string : string -> t
(** Inverse of {!to_string}. @raise Invalid_argument on bad input. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
