(** Driver for the weakkeys-lint rule set: runs every rule over source
    files, honours inline [(* lint: allow <rule-id> *)] suppressions,
    optionally runs the whole-program deep analyses, and renders
    findings as text or JSON. *)

type finding = {
  rule : string;
  severity : Rules.severity;
  path : string;
  line : int;
  message : string;
  hint : string;
}

type source = {
  src_path : string;
      (** Repo-relative path used for rule scoping; need not exist on
          disk. *)
  mli_exists : bool option;
  src : string;
}

val lint_units :
  ?deep:bool -> source list -> finding list
(** Lint a set of compilation units given in memory. With
    [deep:true], additionally builds the cross-file symbol table and
    module graph over the whole set and runs the deep analyses:
    [layer-violation] (ordered layer spec over unit directories),
    [pool-capture-race] and [pass-ctx-mutation] (interprocedural
    effect inference), and [unused-suppression] (every directive must
    catch at least one raw finding; audit findings are themselves
    unsuppressable). Findings are sorted by path, line, rule. *)

val lint_source : path:string -> ?mli_exists:bool -> string -> finding list
(** Lint one compilation unit given as a string (lexical rules only).
    A suppression comment covers its own line(s) and the line directly
    below it, and may name several rules separated by commas or
    spaces; justification prose after [--] or an em-dash is ignored. *)

val lint_paths :
  ?deep:bool -> string list -> finding list
(** Lint files and/or directories (recursed; [_build], [.git] and
    other dot-directories are skipped; only [.ml] files are read).
    Sibling [.mli] presence is checked on disk for the [missing-mli]
    rule. Findings are sorted by path, then line. Raises
    [Sys_error] on unreadable paths. *)

val to_text : finding list -> string
(** One [path:line: [severity] rule: message] block per finding, with
    the fix hint, plus a summary line. *)

val to_json : finding list -> string
(** A JSON array of finding objects. *)

val findings_of_json : string -> (finding list, string) result
(** Parse {!to_json} output back into findings — the machine-format
    round-trip the tests and the baseline workflow rely on. *)
