(** In-memory spans recorded by the benchmark around its calls into the
    library's public functions. Nothing inside [lib/] is timed: a span
    is the wall-clock interval of one call, its parent the span that was
    open when it started. Spans are recorded on the calling domain only,
    so siblings never overlap. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
}

type t

val create : enabled:bool -> t
(** A recorder; when [enabled] is false {!span} just runs its body. *)

val enabled : t -> bool

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a span named [name]. The span is
    closed even when [f] raises. *)

val spans : t -> span list
(** Recorded spans, in start order. *)

val duration : span -> float

val self_time : span list -> span -> float
(** The span's duration minus the part of it that its direct children
    cover. *)

val total : span list -> string -> float
(** Summed duration of every span with that name. *)

val self_total : span list -> string -> float
(** Summed self time of every span with that name. *)

val count : span list -> string -> int

val coverage : span list -> parent:string -> float
(** Summed duration of the direct children of every span named
    [parent], over the summed duration of those parents: 1.0 when the
    children account for all of it. [nan] when no such parent ran. *)
