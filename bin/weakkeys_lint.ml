(* weakkeys-lint: project-specific static analysis for the weakkeys
   tree. See LINTING.md for the rule catalogue, the deep analyses and
   the suppression/baseline syntax. Exit codes: 0 clean, 1 findings
   (or stale baseline entries), 2 usage/IO error. *)

let usage =
  "usage: weakkeys_lint [--json] [--list-rules] [--deep]\n\
  \                     [--baseline FILE] [--write-baseline FILE] [path ...]\n\
   \n\
   Lints the given .ml files and directories (recursively). With no\n\
   paths, lints lib, bin, bench and test under the current directory.\n\
   \n\
   --deep additionally builds the whole-program module graph and runs\n\
   the semantic analyses (layering, pool-capture races, pass-context\n\
   mutation, suppression audit). --baseline compares findings against\n\
   a committed baseline: only findings missing from it — or baselined\n\
   findings that no longer occur (stale entries) — fail the run.\n\
   --write-baseline records the current findings as the new baseline."

let list_rules () =
  List.iter
    (fun (r : Lint.Rules.t) ->
      Printf.printf "%-26s %-7s %s\n    hint: %s\n" r.id
        (Lint.Rules.severity_to_string r.severity)
        r.doc r.hint)
    (Lint.Rules.all @ Lint.Rules.deep)

let triple (f : Lint.Engine.finding) = (f.rule, f.path, f.message)

let () =
  let json = ref false in
  let listing = ref false in
  let deep = ref false in
  let baseline_file = ref "" in
  let write_baseline = ref "" in
  let paths = ref [] in
  let spec =
    [
      ("--json", Arg.Set json, " machine-readable JSON output");
      ("--list-rules", Arg.Set listing, " print the rule catalogue and exit");
      ("--deep", Arg.Set deep, " run the whole-program semantic analyses");
      ( "--baseline",
        Arg.Set_string baseline_file,
        "FILE fail only on findings not in FILE, and on stale entries" );
      ( "--write-baseline",
        Arg.Set_string write_baseline,
        "FILE record current findings as the new baseline and exit" );
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun p -> paths := p :: !paths) usage
   with
  | Arg.Bad msg -> prerr_string msg; exit 2
  | Arg.Help msg -> print_string msg; exit 0);
  if !listing then (list_rules (); exit 0);
  let paths =
    match List.rev !paths with
    | [] -> List.filter Sys.file_exists [ "lib"; "bin"; "bench"; "test" ]
    | ps -> ps
  in
  match Lint.Engine.lint_paths ~deep:!deep paths with
  | exception Sys_error msg ->
    Printf.eprintf "weakkeys_lint: %s\n" msg;
    exit 2
  | findings ->
    if !write_baseline <> "" then begin
      Lint.Baseline.save !write_baseline
        (Lint.Baseline.of_findings
           ~justification:"recorded by --write-baseline; justify or fix"
           (List.map triple findings));
      Printf.printf "weakkeys-lint: wrote %d baseline entr%s to %s\n"
        (List.length findings)
        (if List.length findings = 1 then "y" else "ies")
        !write_baseline;
      exit 0
    end;
    if !baseline_file = "" then begin
      print_string
        (if !json then Lint.Engine.to_json findings ^ "\n"
         else Lint.Engine.to_text findings);
      exit (if findings = [] then 0 else 1)
    end
    else begin
      match Lint.Baseline.load !baseline_file with
      | Error msg ->
        Printf.eprintf "weakkeys_lint: baseline %s: %s\n" !baseline_file msg;
        exit 2
      | Ok base ->
        let cmp = Lint.Baseline.compare_run base (List.map triple findings) in
        let fresh_keys = Hashtbl.create 16 in
        List.iter
          (fun (r, p, m) -> Hashtbl.replace fresh_keys (r, p, m) ())
          cmp.Lint.Baseline.fresh;
        let fresh_findings =
          (* all occurrences of fresh triples, in run order *)
          List.filter (fun f -> Hashtbl.mem fresh_keys (triple f)) findings
        in
        if !json then print_string (Lint.Engine.to_json fresh_findings ^ "\n")
        else begin
          print_string (Lint.Engine.to_text fresh_findings);
          List.iter
            (fun (e : Lint.Baseline.entry) ->
              Printf.printf
                "stale baseline entry: [%s] %s: %s (no longer fires; remove \
                 it)\n"
                e.rule e.path e.message)
            cmp.Lint.Baseline.stale
        end;
        exit
          (if fresh_findings = [] && cmp.Lint.Baseline.stale = [] then 0 else 1)
    end
