(** Per-file symbol and module-reference summaries.

    One summary per compilation unit: top-level value definitions,
    [open]ed modules, [module A = B] aliases, and every dot-qualified
    module reference with its line. The module graph
    ({!Modgraph.build}) and layering checker consume these. *)

type t = {
  path : string;  (** Repo-relative path. *)
  modname : string;  (** Capitalised basename, e.g. ["Nat"]. *)
  defines : (string * int) list;
      (** Named top-level [let] bindings, with line. *)
  opens : (string * int) list;  (** [open M] module paths, with line. *)
  aliases : (string * string * int) list;
      (** [module A = Target] aliases: alias, target path, line. *)
  refs : (string * int) list;
      (** Dot-qualified uppercase-rooted identifiers ([Bignum.Nat.mul],
          [Pool.map]), with line, in source order. *)
}

val modname_of_path : string -> string
(** ["lib/bignum/nat.ml"] → ["Nat"]. *)

val root_of : string -> string
(** Leading path segment: ["Bignum.Nat.mul"] → ["Bignum"]. *)

val summarize : path:string -> string -> t
(** Extract the summary from source text. *)
