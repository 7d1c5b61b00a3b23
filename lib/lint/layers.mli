(** Declarative layering checker over the module graph.

    An ordered layer spec (bottom first) assigns every unit directory
    a height; edges may point sideways or down, never up. Two
    refinements keep the spec honest about the existing architecture:
    an allow-list of individually justified upward edges (pre-existing
    trades like the bignum kernels fanning onto the domain pool), and
    a deny-list of skip-listed edges that are banned even though they
    point downward (the simulator calling attribution techniques). *)

type spec = {
  layers : (string * string list) list;
      (** Ordered bottom-first: layer name, unit directories. *)
  allowed : (string * string * string) list;
      (** Justified exceptions: source dir, target dir, why. *)
  denied : (string * string * string) list;
      (** Banned even when downward: source dir, target dir, why. *)
}

val default : spec
(** The repository's layer cake: bignum → corpus → hashes/stringx →
    parallel → rsa/x509lite → batchgcd → entropy → fingerprint → netsim
    → analysis → core → lint → bin/test/bench. *)

val index_of : spec -> string -> int option
(** Layer height of a unit directory; [None] when unlisted (unlisted
    directories are not checked). *)

val layer_name : spec -> string -> string option

type finding = { path : string; line : int; message : string }

val check : ?spec:spec -> Modgraph.t -> finding list
(** Every upward or skip-listed cross-unit edge, reported at the first
    referencing line in the offending file. *)
