(** Closed-loop operation accounting: one caller, each operation timed
    alone and its output checked after the clock stops. An operation
    that raises or fails its check counts as failed and contributes no
    latency sample. *)

type t

val create : unit -> t

val run :
  t -> (unit -> 'a) -> check:('a -> (unit, string) result) -> ('a * float) option
(** [run t f ~check] times [f ()], then checks its result. When both
    succeed, [Some (v, seconds)] and a latency sample; otherwise [None]
    and a failure (the reason is kept, see {!errors}). *)

val attempted : t -> int
val failed : t -> int

val samples : t -> float list
(** Latencies of the operations that passed, in run order. *)

val errors : t -> string list
(** Failure reasons, in run order. *)

val median : float list -> float
(** [nan] on an empty list. *)
