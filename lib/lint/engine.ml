type finding = {
  rule : string;
  severity : Rules.severity;
  path : string;
  line : int;
  message : string;
  hint : string;
}

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s = Stringx.starts_with ~prefix s

let drop_prefix prefix s =
  String.trim (String.sub s (String.length prefix)
                 (String.length s - String.length prefix))

let index_of_sub sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

let split_ids s =
  String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
  |> List.filter (fun id -> id <> "")

(* A directive [(* lint: allow id1, id2 *)] covers every line the
   comment itself spans plus the line directly below, so it works both
   trailing on the offending line and on its own line above. The
   directive body may carry a justification after an [--] separator:
   [(* lint: allow toplevel-ref -- tuning knob *)]. *)
type directive = { ids : string list; first : int; last : int }

let directives tokens =
  List.filter_map
    (fun (t : Lexer.token) ->
      match t.kind with
      | Lexer.Comment text ->
        let body = String.trim text in
        if starts_with "lint:" body then
          let rest = drop_prefix "lint:" body in
          if starts_with "allow" rest then
            let newlines =
              String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text
            in
            let ids_part =
              (* Justification prose follows an "--" or "—" separator;
                 free prose without one is tolerated (the audit only
                 considers words naming known rules). *)
              let s = drop_prefix "allow" rest in
              let cut sep s =
                match index_of_sub sep s with
                | Some i -> String.trim (String.sub s 0 i)
                | None -> s
              in
              cut "--" (cut "\xe2\x80\x94" s)
            in
            Some
              { ids = split_ids ids_part;
                first = t.line;
                last = t.line + newlines + 1 }
          else None
        else None
      | _ -> None)
    tokens

let suppressed ds (f : finding) =
  List.exists
    (fun d -> f.line >= d.first && f.line <= d.last && List.mem f.rule d.ids)
    ds

(* ------------------------------------------------------------------ *)
(* Linting                                                             *)
(* ------------------------------------------------------------------ *)

let normalize_path p =
  let p = if starts_with "./" p then String.sub p 2 (String.length p - 2) else p in
  String.concat "/" (List.filter (fun s -> s <> "") (String.split_on_char '/' p))

type source = { src_path : string; mli_exists : bool option; src : string }

let order_findings fs =
  List.sort
    (fun a b ->
      match String.compare a.path b.path with
      | 0 -> (
        match Int.compare a.line b.line with
        | 0 -> String.compare a.rule b.rule
        | c -> c)
      | c -> c)
    fs

let mk_finding (r : Rules.t) path line message =
  { rule = r.id; severity = r.severity; path; line; message; hint = r.hint }

(* The deep rules live in Rules.deep with inert checks; severity and
   hint still come from the catalogue so rendering is uniform. *)
let deep_rule id =
  match Rules.find id with
  | Some r -> r
  | None -> invalid_arg ("deep_rule: unknown rule " ^ id)

let lint_units ?(deep = false) units =
  let per_file =
    List.map
      (fun u ->
        let u = { u with src_path = normalize_path u.src_path } in
        let tokens = Lexer.tokenize u.src in
        let ctx =
          { Rules.path = u.src_path; mli_exists = u.mli_exists; tokens }
        in
        let raw =
          Rules.all
          |> List.concat_map (fun (r : Rules.t) ->
                 List.map
                   (fun (f : Rules.finding) ->
                     mk_finding r u.src_path f.line f.message)
                   (r.check ctx))
        in
        (u, tokens, directives tokens, raw))
      units
  in
  let deep_findings =
    if not deep then []
    else begin
      let summaries =
        List.map
          (fun (u, _, _, _) ->
            Symbols.summarize ~path:u.src_path u.src)
          per_file
      in
      let graph = Modgraph.build summaries in
      let layer_rule = deep_rule "layer-violation" in
      let layer =
        Layers.check graph
        |> List.map (fun (l : Layers.finding) ->
               mk_finding layer_rule l.Layers.path l.Layers.line
                 l.Layers.message)
      in
      let infos =
        List.map2
          (fun (u, tokens, _, _) sum ->
            let toks = Structure.code_array tokens in
            Effects.file_info ~path:u.src_path toks (Structure.parse toks) sum)
          per_file summaries
      in
      let env = Effects.build_env graph infos in
      let race_rule = deep_rule "pool-capture-race" in
      let ctx_rule = deep_rule "pass-ctx-mutation" in
      let of_effects r (f : Effects.finding) =
        mk_finding r f.Effects.path f.Effects.line f.Effects.message
      in
      let pool =
        List.concat_map
          (fun fi ->
            List.map (of_effects race_rule) (Effects.check_pool_sites env fi))
          infos
      in
      let ctxm =
        List.concat_map
          (fun fi ->
            List.map (of_effects ctx_rule) (Effects.check_ctx_readonly fi))
          infos
      in
      layer @ pool @ ctxm
    end
  in
  let by_path = Hashtbl.create 16 in
  List.iter
    (fun (u, _, ds, _) -> Hashtbl.replace by_path u.src_path ds)
    per_file;
  let ds_of path = Option.value ~default:[] (Hashtbl.find_opt by_path path) in
  let raw =
    List.concat_map (fun (_, _, _, raw) -> raw) per_file @ deep_findings
  in
  let kept = List.filter (fun f -> not (suppressed (ds_of f.path) f)) raw in
  (* Suppression audit (deep mode): every (directive, rule-id) pair
     must have caught at least one raw finding, else the directive is
     dead weight. Audit findings are themselves unsuppressable — a
     stale allow is fixed by deleting it, not by allowing it. *)
  let audit =
    if not deep then []
    else begin
      let unused_rule = deep_rule "unused-suppression" in
      List.concat_map
        (fun (u, _, ds, _) ->
          List.concat_map
            (fun d ->
              List.filter_map
                (fun id ->
                  if Option.is_none (Rules.find id) then None
                  else
                  let used =
                    List.exists
                      (fun f ->
                        f.path = u.src_path && f.rule = id
                        && f.line >= d.first && f.line <= d.last)
                      raw
                  in
                  if used then None
                  else
                    Some
                      (mk_finding unused_rule u.src_path d.first
                         (Printf.sprintf
                            "suppression `(* lint: allow %s *)` never fires"
                            id)))
                d.ids)
            ds)
        per_file
    end
  in
  order_findings (kept @ audit)

let lint_source ~path ?mli_exists src =
  lint_units [ { src_path = path; mli_exists; src } ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let skip_dir name = name = "_build" || (String.length name > 0 && name.[0] = '.')

let rec gather acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if skip_dir name then acc else gather acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths ?deep paths =
  let files = List.fold_left gather [] paths |> List.sort_uniq String.compare in
  let units =
    List.map
      (fun file ->
        { src_path = file;
          mli_exists =
            Some (Sys.file_exists (Filename.chop_suffix file ".ml" ^ ".mli"));
          src = read_file file })
      files
  in
  lint_units ?deep units

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let summary fs =
  let errors =
    List.length (List.filter (fun f -> f.severity = Rules.Error) fs)
  in
  match fs with
  | [] -> "weakkeys-lint: no findings"
  | _ ->
    Printf.sprintf "weakkeys-lint: %d finding%s (%d error%s, %d warning%s)"
      (List.length fs)
      (if List.length fs = 1 then "" else "s")
      errors
      (if errors = 1 then "" else "s")
      (List.length fs - errors)
      (if List.length fs - errors = 1 then "" else "s")

let to_text fs =
  let buf = Buffer.create 1024 in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "%s:%d: [%s] %s: %s\n    hint: %s\n" f.path f.line
           (Rules.severity_to_string f.severity)
           f.rule f.message f.hint))
    fs;
  Buffer.add_string buf (summary fs);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_json fs =
  let field k v = Printf.sprintf "\"%s\": \"%s\"" k (Json.escape v) in
  let one f =
    String.concat ", "
      [ field "rule" f.rule;
        field "severity" (Rules.severity_to_string f.severity);
        field "path" f.path;
        Printf.sprintf "\"line\": %d" f.line;
        field "message" f.message;
        field "hint" f.hint ]
  in
  "[\n" ^ String.concat ",\n" (List.map (fun f -> "  { " ^ one f ^ " }") fs)
  ^ (if fs = [] then "]" else "\n]")

let findings_of_json s =
  let open Json in
  Result.bind (parse s) (fun j ->
      match to_list j with
      | None -> Error "findings: top level must be a JSON array"
      | Some items ->
        List.fold_left
          (fun acc item ->
            Result.bind acc (fun fs ->
                let str k =
                  match Option.bind (member k item) to_string with
                  | Some s -> Ok s
                  | None ->
                    Error (Printf.sprintf "finding: missing string %S" k)
                in
                Result.bind (str "rule") (fun rule ->
                    Result.bind (str "severity") (fun sev ->
                        Result.bind (str "path") (fun path ->
                            Result.bind (str "message") (fun message ->
                                Result.bind (str "hint") (fun hint ->
                                    match
                                      ( Option.bind (member "line" item) to_int,
                                        sev )
                                    with
                                    | None, _ ->
                                      Error "finding: missing integer `line`"
                                    | Some line, "error" ->
                                      Ok
                                        ({ rule; severity = Rules.Error; path;
                                           line; message; hint }
                                        :: fs)
                                    | Some line, "warning" ->
                                      Ok
                                        ({ rule; severity = Rules.Warning;
                                           path; line; message; hint }
                                        :: fs)
                                    | Some _, other ->
                                      Error
                                        (Printf.sprintf
                                           "finding: unknown severity %S" other))))))))
          (Ok []) items
        |> Result.map List.rev)
