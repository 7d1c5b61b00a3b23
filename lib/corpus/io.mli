(** Binary channel serialization helpers for checkpoint files.

    Minimal length-prefixed encodings shared by the incremental-GCD
    checkpoint ({!Batchgcd.Incremental}) and the stage runner
    ([Weakkeys.Stage]). All integers are written with
    [output_binary_int] (big-endian 32-bit), bignums as
    length-prefixed big-endian bytes. Readers raise {!Corrupt} on any
    malformed record rather than returning garbage. *)

exception Corrupt of string

val write_int : out_channel -> int -> unit
(** @raise Invalid_argument outside the 32-bit non-negative range. *)

val read_int : in_channel -> int
(** @raise Corrupt on a negative value (truncated / not ours).
    @raise End_of_file at end of channel. *)

val read_count : min_bytes_each:int -> in_channel -> int
(** [read_count ~min_bytes_each ic] reads a record count written by
    {!write_int}, where every record it counts takes at least
    [min_bytes_each] bytes of the input that follows. Loaders read a
    count through this before allocating for it.
    @raise Corrupt on a negative value, or on a count the channel's
    remaining bytes cannot hold (checked on seekable channels only).
    @raise End_of_file at end of channel.
    @raise Invalid_argument when [min_bytes_each < 1]. *)

val expect_end : in_channel -> unit
(** Call after loading a file that holds exactly one record: a count
    field that was lowered would otherwise load a prefix of the data
    and leave the rest unread.
    @raise Corrupt when a seekable channel has bytes left. *)

val write_string : out_channel -> string -> unit
val read_string : in_channel -> string

val write_atomic : string -> (out_channel -> unit) -> unit
(** [write_atomic path write] runs [write] on a fresh [path ^ ".tmp"]
    and renames it over [path] once the channel is closed, so [path]
    holds either its old contents or all of the new ones. If [write]
    (or the close) raises, the temporary file is removed and the
    exception re-raised; [path] is untouched. *)

val write_nat : out_channel -> Bignum.Nat.t -> unit
val read_nat : in_channel -> Bignum.Nat.t
