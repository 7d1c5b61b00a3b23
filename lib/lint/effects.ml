(* Interprocedural effect inference and the pool-capture race
   detector.

   Phase 1 (per file): every syntactic function — a binding with
   parameters, or one whose body is a [fun]/[function] literal — gets
   a direct-effect summary: which non-local names it mutates (ref
   assignment, [incr]/[decr], record-field stores, calls into a table
   of known in-place mutators like [Hashtbl.replace] and
   [Corpus.Store.intern]), whether it performs IO, and which
   identifiers it calls. "Non-local" is judged against the binding's
   parameters plus {!Structure.binders} over its body, so a function
   that mutates state it created itself stays pure from the outside.
   Element writes [a.(i) <- e] are deliberately exempt: disjoint-index
   array fills are the codebase's sanctioned way to produce results
   under the pool.

   Phase 2 (whole program): a function is effectful when it has direct
   effects or (transitively, via memoized DFS over resolved calls) any
   callee is. Calls resolve through the module graph — bare names to
   this file's bindings, [Sibling.fn] within the directory,
   [Lib.Module.fn] across libraries. Anything defined in
   [lib/parallel] is the pool's own machinery and counts as pure;
   unresolvable calls (stdlib, externals, higher-order parameters)
   are conservatively ignored, biasing the analysis toward silence
   rather than noise.

   Phase 3 (call sites): at every [Parallel.Pool.map] /
   [parallel_for] / [Pool.init] call outside [lib/parallel], the job
   argument — an inline closure or a named function — is checked:
   mutation of captured state, IO, or a call to an effectful function
   is a race finding. Separately, attribution pass [run] bodies (and
   any [lib/fingerprint] function taking a [ctx] parameter) must
   treat the pass context as read-only; writes through it are
   [pass-ctx-mutation] findings. *)

type write = { target : string; op : string; wline : int }

type fn = {
  fpath : string;
  fname : string;
  fline : int;
  ftop : bool;
  fstart : int;
  writes : write list;
  io : (string * int) list;
  calls : (string * int) list;
}

type file_info = {
  path : string;
  toks : Lexer.token array;
  bindings : Structure.binding list;
  summary : Symbols.t;
  fns : fn list;
}

type env = {
  graph : Modgraph.t;
  files : (string, file_info) Hashtbl.t;
  memo : (string * int, string option) Hashtbl.t;
  running : (string * int, unit) Hashtbl.t;
}

type finding = { path : string; line : int; message : string }

(* ------------------------------------------------------------------ *)
(* Effect tables                                                       *)
(* ------------------------------------------------------------------ *)

let strip_stdlib s =
  if Stringx.starts_with ~prefix:"Stdlib." s then
    String.sub s 7 (String.length s - 7)
  else s

(* Known in-place mutators, keyed on their last two path segments so
   [Hashtbl.replace], [Stdlib.Hashtbl.replace] and a functor instance
   [H.replace] (alias-expanded to [Hashtbl.Make...]) all match. The
   first plain argument is the mutated value. [Atomic] operations are
   absent on purpose — they are the sanctioned shared-state
   primitive. *)
let mutators =
  [ "Hashtbl.replace"; "Hashtbl.add"; "Hashtbl.remove"; "Hashtbl.reset";
    "Hashtbl.clear"; "Hashtbl.filter_map_inplace";
    "Buffer.add_string"; "Buffer.add_char"; "Buffer.add_bytes";
    "Buffer.add_substring"; "Buffer.add_buffer"; "Buffer.clear";
    "Buffer.reset"; "Buffer.truncate";
    "Queue.add"; "Queue.push"; "Queue.pop"; "Queue.take"; "Queue.clear";
    "Stack.push"; "Stack.pop"; "Stack.clear";
    "Bytes.set"; "Bytes.fill"; "Bytes.blit"; "Bytes.blit_string";
    "Array.fill"; "Array.blit"; "Array.sort"; "Array.fast_sort";
    "Array.stable_sort";
    "Store.intern"; "Id_set.add"; "Id_set.remove" ]

let io_writers =
  [ "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "read_line"; "flush";
    "Printf.printf"; "Printf.eprintf"; "Printf.fprintf"; "Format.printf";
    "Format.eprintf"; "output_string"; "output_char"; "output_bytes";
    "output_byte"; "open_out"; "open_out_bin"; "open_in"; "open_in_bin";
    "input_line"; "really_input"; "really_input_string"; "input_byte";
    "input_char"; "Sys.command"; "Sys.remove"; "Sys.rename";
    "Unix.system"; "Unix.unlink"; "Unix.mkdir" ]

let last_two s =
  match List.rev (String.split_on_char '.' s) with
  | f :: m :: _ -> m ^ "." ^ f
  | _ -> s

let root_of = Symbols.root_of

let tail_of s =
  match String.index_opt s '.' with
  | Some i -> String.sub s i (String.length s - i)
  | None -> ""

(* Root-expanded full name: [H.replace] with [module H = Hashtbl.Make]
   becomes [Hashtbl.replace]; unaliased names pass through. *)
let expand (sum : Symbols.t) id =
  let root = root_of id in
  match
    List.find_opt (fun (a, _, _) -> a = root) sum.Symbols.aliases
  with
  | Some (_, target, _) -> target ^ tail_of id
  | None -> id

let is_mutator sum id =
  let id = strip_stdlib (expand sum id) in
  List.mem (last_two id) mutators || List.mem id mutators

let is_io id =
  let id = strip_stdlib id in
  List.mem id io_writers

let is_lower s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | '_' -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Region scanner                                                      *)
(* ------------------------------------------------------------------ *)

(* First plain argument identifier after a function name at [i],
   skipping labeled arguments; [None] when the argument is not a
   simple identifier (conservative: no finding). *)
let arg_after toks n i =
  let skip_atom j =
    if j >= n then j
    else
      match toks.(j).Lexer.kind with
      | Lexer.Sym "(" ->
        let d = ref 1 and k = ref (j + 1) in
        while !d > 0 && !k < n do
          (match toks.(!k).Lexer.kind with
          | Lexer.Sym "(" -> incr d
          | Lexer.Sym ")" -> decr d
          | _ -> ());
          incr k
        done;
        !k
      | _ -> j + 1
  in
  let rec go j =
    if j >= n then None
    else
      match toks.(j).Lexer.kind with
      | Lexer.Sym ("~" | "?") -> (
        match if j + 1 < n then Some toks.(j + 1).Lexer.kind else None with
        | Some (Lexer.Ident _) ->
          if j + 2 < n && toks.(j + 2).Lexer.kind = Lexer.Sym ":" then
            go (skip_atom (j + 3))
          else go (j + 2)
        | _ -> None)
      | Lexer.Ident id when is_lower id -> Some id
      | _ -> None
  in
  go (i + 1)

type region_effects = {
  r_writes : write list;
  r_io : (string * int) list;
  r_calls : (string * int) list;
}

let scan_region (sum : Symbols.t) toks lo hi locals =
  let n = Array.length toks in
  let hi = Stdlib.min hi n in
  let local id = List.mem (root_of id) locals in
  let writes = ref [] and io = ref [] and calls = ref [] in
  let add_write target op line =
    if not (local target) then
      writes := { target = root_of target; op; wline = line } :: !writes
  in
  for i = lo to hi - 1 do
    let line = toks.(i).Lexer.line in
    match toks.(i).Lexer.kind with
    | Lexer.Sym ":=" ->
      if i > lo then (
        match toks.(i - 1).Lexer.kind with
        | Lexer.Ident target when is_lower target -> add_write target ":=" line
        | _ -> ())
    | Lexer.Sym "<-" ->
      if i > lo then (
        match toks.(i - 1).Lexer.kind with
        | Lexer.Sym ")" -> ()  (* element write a.(i) <- e: exempt *)
        | Lexer.Ident target -> add_write target "<-" line
        | _ -> ())
    | Lexer.Ident ("incr" | "decr") ->
      if i + 1 < hi then (
        match toks.(i + 1).Lexer.kind with
        | Lexer.Ident target when is_lower target ->
          add_write target "incr/decr" line
        | _ -> ())
    | Lexer.Ident id when is_mutator sum id -> (
      match arg_after toks hi i with
      | Some target when not (local target) ->
        writes :=
          { target = root_of target; op = strip_stdlib (expand sum id);
            wline = line }
          :: !writes
      | _ -> ())
    | Lexer.Ident id when is_io id -> io := (strip_stdlib id, line) :: !io
    | Lexer.Ident id
      when (not (List.mem id Structure.keywords)) && not (local id) ->
      (* Call candidate: bare lowercase name, or qualified path with a
         lowercase final segment. Resolution later prunes data refs
         and stdlib. *)
      let segs = String.split_on_char '.' id in
      let final = List.nth segs (List.length segs - 1) in
      if is_lower final then calls := (id, line) :: !calls
    | _ -> ()
  done;
  { r_writes = List.rev !writes;
    r_io = List.rev !io;
    r_calls = List.rev !calls }

(* ------------------------------------------------------------------ *)
(* Phase 1: per-file function summaries                                *)
(* ------------------------------------------------------------------ *)

let is_function toks (b : Structure.binding) =
  b.Structure.params <> []
  || (b.Structure.body_start < Array.length toks
     && b.Structure.body_start < b.Structure.stop
     &&
     match toks.(b.Structure.body_start).Lexer.kind with
     | Lexer.Ident ("fun" | "function") -> true
     | _ -> false)

let file_info ~path toks bindings summary =
  let fns =
    List.filter_map
      (fun (b : Structure.binding) ->
        if not (is_function toks b) then None
        else begin
          let locals =
            b.Structure.params
            @ Structure.binders toks b.Structure.body_start b.Structure.stop
          in
          let r =
            scan_region summary toks b.Structure.body_start b.Structure.stop
              locals
          in
          Some
            { fpath = path; fname = b.Structure.name; fline = b.Structure.line;
              ftop = b.Structure.toplevel; fstart = b.Structure.start;
              writes = r.r_writes; io = r.r_io; calls = r.r_calls }
        end)
      bindings
  in
  { path; toks; bindings; summary; fns }

(* ------------------------------------------------------------------ *)
(* Phase 2: resolution and transitive effects                          *)
(* ------------------------------------------------------------------ *)

let build_env graph infos =
  let files = Hashtbl.create 64 in
  List.iter (fun (fi : file_info) -> Hashtbl.replace files fi.path fi) infos;
  { graph; files; memo = Hashtbl.create 256; running = Hashtbl.create 16 }

let find_fn fi ?(toplevel_only = false) name =
  let top =
    List.find_opt (fun f -> f.fname = name && f.ftop) fi.fns
  in
  match top with
  | Some _ -> top
  | None -> if toplevel_only then None
            else List.find_opt (fun f -> f.fname = name) fi.fns

let resolve_call env (fi : file_info) callee =
  let own_dir = Modgraph.dir_of_path fi.path in
  if String.contains callee '.' then begin
    let expanded = expand fi.summary callee in
    match String.split_on_char '.' expanded with
    | root :: rest when rest <> [] -> (
      let final = List.nth rest (List.length rest - 1) in
      let in_file dir modname =
        match Modgraph.file_of env.graph ~dir ~modname with
        | Some p when Modgraph.dir_of_path p <> "lib/parallel" -> (
          match Hashtbl.find_opt env.files p with
          | Some fi' -> find_fn fi' ~toplevel_only:true final
          | None -> None)
        | _ -> None
      in
      if not (is_lower final) then None
      else
        (* Sibling module in the same directory wins, then a library
           root with an explicit submodule. *)
        match in_file own_dir root with
        | Some f -> Some f
        | None -> (
          match Modgraph.dir_of_root env.graph root with
          | Some dir when dir <> "lib/parallel" && List.length rest >= 2 ->
            in_file dir (List.hd rest)
          | _ -> None))
    | _ -> None
  end
  else
    match Hashtbl.find_opt env.files fi.path with
    | Some fi -> find_fn fi callee
    | None -> None

let describe_fn f =
  if f.fname = "" then Printf.sprintf "the closure at %s:%d" f.fpath f.fline
  else Printf.sprintf "`%s` (%s:%d)" f.fname f.fpath f.fline

(* Why is [f] effectful? [None] when it is not. Memoized; cycles
   resolve to [None] at the back edge (one-pass semantics). *)
let rec effect_of env f =
  let key = (f.fpath, f.fstart) in
  match Hashtbl.find_opt env.memo key with
  | Some r -> r
  | None ->
    if Hashtbl.mem env.running key then None
    else begin
      Hashtbl.replace env.running key ();
      let r =
        match f.writes with
        | w :: _ ->
          Some
            (Printf.sprintf "mutates shared `%s` (%s, %s:%d)" w.target w.op
               f.fpath w.wline)
        | [] -> (
          match f.io with
          | (name, line) :: _ ->
            Some
              (Printf.sprintf "performs IO via `%s` (%s:%d)" name f.fpath line)
          | [] ->
            List.find_map
              (fun (callee, _) ->
                match
                  Hashtbl.find_opt env.files f.fpath
                  |> Fun.flip Option.bind (fun fi ->
                         resolve_call env fi callee)
                with
                | Some f' when f'.fstart <> f.fstart || f'.fpath <> f.fpath
                  -> (
                  match effect_of env f' with
                  | Some why ->
                    Some
                      (Printf.sprintf "calls %s, which %s" (describe_fn f')
                         why)
                  | None -> None)
                | _ -> None)
              f.calls)
      in
      Hashtbl.remove env.running key;
      Hashtbl.replace env.memo key r;
      r
    end

(* ------------------------------------------------------------------ *)
(* Phase 3: pool call sites                                            *)
(* ------------------------------------------------------------------ *)

let pool_entry (sum : Symbols.t) id =
  let id = strip_stdlib (expand sum id) in
  match id with
  | "Parallel.Pool.map" | "Parallel.Pool.parallel_for"
  | "Parallel.Pool.init" ->
    Some id
  | _ -> None

(* Argument atoms of the application starting after token [i]:
   [`Closure (lo, hi)] for inline [fun] literals (token range of the
   whole literal), [`Named id] for identifier arguments (including the
   head of a parenthesized partial application). Labeled arguments
   are skipped. *)
let call_args toks n i =
  let atoms = ref [] in
  let j = ref (i + 1) in
  let stop = ref false in
  let matching_close k =
    let d = ref 1 and m = ref (k + 1) in
    while !d > 0 && !m < n do
      (match toks.(!m).Lexer.kind with
      | k when Structure.opens_depth k -> incr d
      | k when Structure.closes_depth k -> decr d
      | _ -> ());
      incr m
    done;
    !m - 1
  in
  while (not !stop) && !j < n && List.length !atoms < 8 do
    (match toks.(!j).Lexer.kind with
    | Lexer.Sym ("~" | "?") ->
      (match if !j + 1 < n then Some toks.(!j + 1).Lexer.kind else None with
      | Some (Lexer.Ident _) ->
        if !j + 2 < n && toks.(!j + 2).Lexer.kind = Lexer.Sym ":" then begin
          (* labeled value: skip one atom *)
          (match if !j + 3 < n then Some toks.(!j + 3).Lexer.kind else None with
          | Some (Lexer.Sym "(") -> j := matching_close (!j + 3) + 1
          | _ -> j := !j + 4)
        end
        else j := !j + 2
      | _ -> stop := true)
    | Lexer.Sym "(" ->
      let close = matching_close !j in
      (match
         if !j + 1 < n then Some toks.(!j + 1).Lexer.kind else None
       with
      | Some (Lexer.Ident ("fun" | "function")) ->
        atoms := `Closure (!j + 1, close) :: !atoms
      | Some (Lexer.Ident id) when is_lower id || String.contains id '.' ->
        atoms := `Named id :: !atoms
      | _ -> ());
      j := close + 1
    | Lexer.Ident "fun" ->
      (* unparenthesized trailing closure: runs to the end of the
         enclosing expression; approximate with the enclosing depth
         drop *)
      atoms := `Closure (!j, n) :: !atoms;
      stop := true
    | Lexer.Ident id when not (List.mem id Structure.keywords) ->
      atoms := `Named id :: !atoms;
      incr j
    | Lexer.Number _ | Lexer.String_lit | Lexer.Char_lit -> incr j
    | Lexer.Sym ("!" | "@@") -> incr j
    | _ -> stop := true);
    ()
  done;
  List.rev !atoms

let check_closure env fi entry lo hi =
  let toks = fi.toks in
  let params =
    (* tokens between `fun` and `->` *)
    let ps = ref [] and j = ref (lo + 1) in
    while
      !j < hi
      && (match toks.(!j).Lexer.kind with
         | Lexer.Sym "->" -> false
         | _ -> true)
    do
      (match toks.(!j).Lexer.kind with
      | Lexer.Ident id when is_lower id -> ps := id :: !ps
      | _ -> ());
      incr j
    done;
    !ps
  in
  let locals = params @ Structure.binders toks lo hi in
  let r = scan_region fi.summary toks lo hi locals in
  match r.r_writes with
  | w :: _ ->
    Some
      ( w.wline,
        Printf.sprintf
          "closure passed to `%s` mutates captured `%s` (%s); return values \
           and merge sequentially instead" entry w.target w.op )
  | [] -> (
    match r.r_io with
    | (name, line) :: _ ->
      Some
        ( line,
          Printf.sprintf "closure passed to `%s` performs IO via `%s`" entry
            name )
    | [] ->
      List.find_map
        (fun (callee, line) ->
          match resolve_call env fi callee with
          | Some f -> (
            match effect_of env f with
            | Some why ->
              Some
                ( line,
                  Printf.sprintf "closure passed to `%s` calls %s, which %s"
                    entry (describe_fn f) why )
            | None -> None)
          | None -> None)
        r.r_calls)

let check_pool_sites env (fi : file_info) =
  if Modgraph.dir_of_path fi.path = "lib/parallel" then []
  else begin
    let toks = fi.toks in
    let n = Array.length toks in
    let out = ref [] in
    for i = 0 to n - 1 do
      match toks.(i).Lexer.kind with
      | Lexer.Ident id -> (
        match pool_entry fi.summary id with
        | None -> ()
        | Some entry ->
          let line = toks.(i).Lexer.line in
          let finding =
            List.find_map
              (function
                | `Closure (lo, hi) -> check_closure env fi entry lo hi
                | `Named callee -> (
                  match resolve_call env fi callee with
                  | Some f -> (
                    match effect_of env f with
                    | Some why ->
                      Some
                        ( line,
                          Printf.sprintf "%s passed to `%s` %s"
                            (describe_fn f) entry why )
                    | None -> None)
                  | None -> None))
              (call_args toks n i)
          in
          Option.iter
            (fun (fline, message) ->
              out := { path = fi.path; line = fline; message } :: !out)
            finding)
      | _ -> ()
    done;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Pass contexts are read-only                                         *)
(* ------------------------------------------------------------------ *)

(* Attribution pass bodies receive the shared Ctx and the
   accumulating table; they must only read them. Checked for every
   lib/fingerprint function whose first parameters include [ctx], and
   for inline rules [Pass.Full (fun ctx ... -> ...)] and
   [Pass.Delta (fun ctx ... -> ...)]. *)
let check_ctx_readonly (fi : file_info) =
  if not (Stringx.starts_with ~prefix:"lib/fingerprint/" fi.path) then []
  else begin
    let toks = fi.toks in
    let out = ref [] in
    let check_range name lo hi =
      let r = scan_region fi.summary toks lo hi [] in
      List.iter
        (fun w ->
          if w.target = "ctx" then
            out :=
              { path = fi.path;
                line = w.wline;
                message =
                  Printf.sprintf
                    "%s mutates the pass context via `%s` (%s); Ctx.t is \
                     read-only inside passes" name w.target w.op }
              :: !out)
        r.r_writes
    in
    List.iter
      (fun (b : Structure.binding) ->
        if List.mem "ctx" b.Structure.params then
          check_range
            (if b.Structure.name = "" then "a pass body"
             else "`" ^ b.Structure.name ^ "`")
            b.Structure.body_start b.Structure.stop)
      fi.bindings;
    (* Full (fun ctx ... -> ...) and Delta (fun ctx ... -> ...) rules *)
    let rule_constructor name =
      List.exists
        (fun c -> name = c || Stringx.ends_with ~suffix:("." ^ c) name)
        [ "Full"; "Delta" ]
    in
    let n = Array.length toks in
    for i = 0 to n - 3 do
      match
        (toks.(i).Lexer.kind, toks.(i + 1).Lexer.kind, toks.(i + 2).Lexer.kind)
      with
      | Lexer.Ident c, Lexer.Sym "(", Lexer.Ident "fun" when rule_constructor c ->
        let d = ref 1 and k = ref (i + 2) in
        while !d > 0 && !k < n do
          incr k;
          (match if !k < n then Some toks.(!k).Lexer.kind else None with
          | Some (Lexer.Sym "(") -> incr d
          | Some (Lexer.Sym ")") -> decr d
          | _ -> ())
        done;
        check_range "a pass body" (i + 2) !k
      | _ -> ()
    done;
    List.rev !out
  end
