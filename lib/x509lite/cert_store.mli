(** Interning table for certificates, the certificate counterpart of
    {!Corpus.Store} for moduli.

    Each distinct certificate gets a dense [int] id, assigned in
    insertion order starting at 0, and exactly one SHA-256
    {!Certificate.fingerprint}, computed the first time its value is
    seen. An id stands for a distinct {e fingerprint}: the value-keyed
    lookup in front of it is only a cache, so two values that encode
    to the same text share an id, and id counts equal fingerprint
    counts exactly.

    Per-record work downstream (statistics, labels, series, exports)
    reads ids and {!fingerprint}s instead of re-hashing certificates.

    Single-writer, like {!Corpus.Store}: do not [intern] from several
    domains at once. Reads are safe once building stops. *)

type t

val create : ?size:int -> unit -> t
(** Fresh empty table; [size] is a capacity hint. *)

val copy : t -> t
(** An independent table with the same ids, which later {!intern}
    calls extend without touching the original. This is how an
    extended pipeline keeps its parent's ids stable. *)

val size : t -> int
(** Number of distinct certificates; ids are exactly
    [0 .. size t - 1]. *)

val intern : t -> Certificate.t -> int
(** The id of a certificate, assigning the next id to a fingerprint
    not seen before. A value already seen costs one cache lookup; a
    new value costs one fingerprint. *)

val get : t -> int -> Certificate.t
(** The first value interned under an id.
    @raise Invalid_argument on an id never assigned. *)

val fingerprint : t -> int -> string
(** The fingerprint of an id, as {!Certificate.fingerprint} computes
    it. @raise Invalid_argument on an id never assigned. *)
