(* Per-file symbol summary: what a compilation unit defines at top
   level, which modules it opens or aliases, and every qualified
   module reference it makes. These summaries are the raw material of
   the module graph and the layering checker. *)

type t = {
  path : string;
  modname : string;
  defines : (string * int) list;
  opens : (string * int) list;
  aliases : (string * string * int) list;
  refs : (string * int) list;
}

let modname_of_path path =
  let base = Filename.remove_extension (Filename.basename path) in
  if base = "" then ""
  else String.make 1 (Char.uppercase_ascii base.[0])
       ^ String.sub base 1 (String.length base - 1)

let is_module_path s =
  String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'

let root_of s =
  match String.index_opt s '.' with
  | Some i -> String.sub s 0 i
  | None -> s

let summarize ~path src =
  let toks = Structure.code_array (Lexer.tokenize src) in
  let bindings = Structure.parse toks in
  let defines =
    List.filter_map
      (fun (b : Structure.binding) ->
        if b.Structure.toplevel && b.Structure.name <> ""
           && b.Structure.name <> "_"
        then Some (b.Structure.name, b.Structure.line)
        else None)
      bindings
  in
  let n = Array.length toks in
  let opens = ref [] and aliases = ref [] and refs = ref [] in
  for i = 0 to n - 1 do
    match toks.(i).Lexer.kind with
    | Lexer.Ident "open" ->
      if i + 1 < n then (
        match toks.(i + 1).Lexer.kind with
        | Lexer.Ident m when is_module_path m ->
          opens := (m, toks.(i).Lexer.line) :: !opens
        | _ -> ())
    | Lexer.Ident "module" ->
      (* [module A = Path] — an alias when the right-hand side is a
         module path (not [struct], not a functor application). *)
      if i + 3 < n then (
        match
          ( toks.(i + 1).Lexer.kind,
            toks.(i + 2).Lexer.kind,
            toks.(i + 3).Lexer.kind )
        with
        | Lexer.Ident a, Lexer.Sym "=", Lexer.Ident target
          when is_module_path a && is_module_path target ->
          aliases := (a, target, toks.(i).Lexer.line) :: !aliases
        | _ -> ())
    | Lexer.Ident s when is_module_path s && String.contains s '.' ->
      refs := (s, toks.(i).Lexer.line) :: !refs
    | _ -> ()
  done;
  { path;
    modname = modname_of_path path;
    defines;
    opens = List.rev !opens;
    aliases = List.rev !aliases;
    refs = List.rev !refs }
