(** Interning store for moduli (and other bignums).

    Maps each distinct [Nat.t] to a dense [int] id, assigned in
    insertion order starting at 0. The id doubles as an index into
    per-id arrays and bitsets ({!Id_set}), which replaces the
    [(int array, _) Hashtbl.t] tables keyed on [Nat.to_limbs] that
    used to be scattered across the pipeline, fingerprint and analysis
    layers (see the [limbs-keyed-hashtbl] lint rule).

    The store keeps the interned values themselves in a growable
    array, with an open-addressing index over them.

    Stores are single-writer: interleaving [intern] calls from several
    domains is not supported. Lookups are safe once building stops. *)

type t

val create : ?size:int -> unit -> t
(** Fresh empty store. [size] is a capacity hint for the intern
    index. *)

val copy : t -> t
(** An independent store with the same ids and values: its values,
    memoized hashes and index are copied, not rehashed. Later
    {!intern} calls on either store leave the other unchanged. This is
    how an extended pipeline keeps its parent's ids stable. *)

val size : t -> int
(** Number of distinct values interned so far. Ids are exactly
    [0 .. size - 1]. *)

val intern : t -> Bignum.Nat.t -> int
(** [intern t n] returns the id of [n], assigning the next dense id
    ([size t] before the call) if [n] has not been seen. *)

val find : t -> Bignum.Nat.t -> int option
(** Id of [n] if already interned, without inserting. *)

val mem : t -> Bignum.Nat.t -> bool

val get : t -> int -> Bignum.Nat.t
(** Value for an id. @raise Invalid_argument if the id was never
    assigned. *)

val to_array : t -> Bignum.Nat.t array
(** All interned values in id order (a fresh array). *)

val iter : (int -> Bignum.Nat.t -> unit) -> t -> unit
(** Iterate in id order. *)
