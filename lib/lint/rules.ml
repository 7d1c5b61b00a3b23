type severity = Error | Warning

let severity_to_string = function Error -> "error" | Warning -> "warning"

type finding = { line : int; message : string }

type ctx = {
  path : string;
  mli_exists : bool option;
  tokens : Lexer.token list;
}

type t = {
  id : string;
  severity : severity;
  doc : string;
  hint : string;
  check : ctx -> finding list;
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

(* Affix checks come from the shared [Stringx] util; the thin aliases
   keep the positional call sites below readable. *)
let starts_with prefix s = Stringx.starts_with ~prefix s
let ends_with suffix s = Stringx.ends_with ~suffix s

let strip_stdlib s =
  if starts_with "Stdlib." s then
    String.sub s 7 (String.length s - 7)
  else s

let code ctx = List.filter Lexer.is_code ctx.tokens

let in_dir dir path = starts_with (dir ^ "/") path

(* Flag every code identifier satisfying [pred]. *)
let flag_idents pred message ctx =
  List.filter_map
    (fun (t : Lexer.token) ->
      match t.kind with
      | Lexer.Ident s when Lexer.is_code t && pred s ->
        Some { line = t.line; message = message s }
      | _ -> None)
    ctx.tokens

(* ------------------------------------------------------------------ *)
(* Rule 1: determinism — no ambient RNG outside Netsim.Det             *)
(* ------------------------------------------------------------------ *)

(* [Random.State] threaded from an explicit seed replays identically,
   so it stays legal (the test suite relies on it); everything touching
   the ambient global generator — or self-seeding — does not. *)
let det_random ctx =
  if ctx.path = "lib/netsim/det.ml" then []
  else
    flag_idents
      (fun s ->
        let s = strip_stdlib s in
        (s = "Random" || starts_with "Random." s)
        && not
             (starts_with "Random.State." s
             && s <> "Random.State.make_self_init")
      )
      (fun s -> Printf.sprintf "nondeterministic RNG call `%s`" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Rule 2: no physical equality on values                              *)
(* ------------------------------------------------------------------ *)

let phys_equal ctx =
  List.filter_map
    (fun (t : Lexer.token) ->
      match t.kind with
      | Lexer.Sym (("==" | "!=") as op) ->
        Some
          { line = t.line;
            message = Printf.sprintf "physical equality `%s`" op }
      | _ -> None)
    ctx.tokens

(* ------------------------------------------------------------------ *)
(* Rule 3: no polymorphic compare in the bignum layers                 *)
(* ------------------------------------------------------------------ *)

(* A file that defines its own top-level [let compare] (Nat, Zz) may of
   course call it unqualified; only files without such a definition are
   using [Stdlib.compare], which on [Nat.t] would order by limb-array
   identity rather than numeric value. *)
let poly_compare ctx =
  if not (in_dir "lib/bignum" ctx.path || in_dir "lib/batchgcd" ctx.path)
  then []
  else
    let defines_compare =
      let rec scan = function
        | { Lexer.kind = Lexer.Ident "let"; _ }
          :: { Lexer.kind = Lexer.Ident "compare"; _ } :: _ -> true
        | _ :: rest -> scan rest
        | [] -> false
      in
      scan (code ctx)
    in
    flag_idents
      (fun s ->
        s = "Stdlib.compare" || ((not defines_compare) && s = "compare"))
      (fun s -> Printf.sprintf "polymorphic `%s` on bignum values" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Rule 4: no catch-all exception handlers                             *)
(* ------------------------------------------------------------------ *)

(* Lexical [with]-binder tracking: a [with] resolves the innermost
   open [try], [match] or record-update brace. Only a [try]'s [with]
   whose first pattern is a bare [_] is flagged; a trailing [| _ ->]
   arm deeper in a handler is beyond a lexical pass (documented in
   LINTING.md). *)
let catchall_exn ctx =
  let findings = ref [] in
  let rec run stack = function
    | [] -> ()
    | ({ Lexer.kind; line; _ } : Lexer.token) :: rest -> (
      match kind with
      | Lexer.Ident "try" -> run (`Try :: stack) rest
      | Lexer.Ident "match" -> run (`Match :: stack) rest
      | Lexer.Sym "{" -> run (`Brace :: stack) rest
      | Lexer.Sym "}" ->
        run (match stack with `Brace :: tl -> tl | s -> s) rest
      | Lexer.Ident "with" -> (
        match stack with
        | `Try :: tl ->
          (let arm =
             match rest with
             | { Lexer.kind = Lexer.Sym "|"; _ } :: r -> r
             | r -> r
           in
           match arm with
           | { Lexer.kind = Lexer.Ident "_"; _ }
             :: { Lexer.kind = Lexer.Sym "->"; _ } :: _ ->
             findings :=
               { line; message = "catch-all `try ... with _ ->`" }
               :: !findings
           | _ -> ());
          run tl rest
        | `Match :: tl -> run tl rest
        | _ -> run stack rest)
      | _ -> run stack rest)
  in
  run [] (code ctx);
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule 5: library code never writes to stdout/stderr                  *)
(* ------------------------------------------------------------------ *)

let stdout_writers =
  [ "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_char"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline" ]

let lib_stdout ctx =
  if not (in_dir "lib" ctx.path) then []
  else
    flag_idents
      (fun s -> List.mem (strip_stdlib s) stdout_writers)
      (fun s -> Printf.sprintf "direct console output `%s` in library code" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Rule 6: failwith only inside *_exn functions                        *)
(* ------------------------------------------------------------------ *)

(* The enclosing chain comes from the binding-structure parser, so
   nested [let ... in] helpers resolve precisely: a [failwith] is
   sanctioned when any binding in its enclosing chain carries the
   [_exn] suffix (a private helper inside [parse_exn] may raise on its
   behalf), and a raising helper inside a non-[_exn] function is
   flagged even when the column-0 binding looks innocent. *)
let failwith_outside_exn ctx =
  let toks = Structure.code_array ctx.tokens in
  let bindings = Structure.parse toks in
  let out = ref [] in
  Array.iteri
    (fun i (t : Lexer.token) ->
      match t.Lexer.kind with
      | Lexer.Ident id when strip_stdlib id = "failwith" ->
        let chain = Structure.enclosing bindings i in
        let sanctioned =
          List.exists
            (fun (b : Structure.binding) ->
              ends_with "_exn" b.Structure.name)
            chain
        in
        if not sanctioned then begin
          let name =
            List.find_map
              (fun (b : Structure.binding) ->
                if b.Structure.name = "" then None else Some b.Structure.name)
              chain
          in
          out :=
            { line = t.Lexer.line;
              message =
                Printf.sprintf "`failwith` outside an `_exn` function%s"
                  (match name with
                  | None -> ""
                  | Some n -> " (in `" ^ n ^ "`)") }
            :: !out
        end
      | _ -> ())
    toks;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Rule 7: no top-level mutable state in libraries                     *)
(* ------------------------------------------------------------------ *)

let toplevel_ref ctx =
  if not (in_dir "lib" ctx.path) then []
  else
    let findings = ref [] in
    let rec run = function
      | ({ Lexer.kind = Lexer.Ident "let"; col = 0; _ } : Lexer.token)
        :: { Lexer.kind = Lexer.Ident name; _ }
        :: { Lexer.kind = Lexer.Sym "="; line; _ }
        :: { Lexer.kind = Lexer.Ident "ref"; _ } :: rest ->
        findings :=
          { line;
            message =
              Printf.sprintf "top-level mutable state `let %s = ref ...`" name }
          :: !findings;
        run rest
      | _ :: rest -> run rest
      | [] -> ()
    in
    run (code ctx);
    List.rev !findings

(* ------------------------------------------------------------------ *)
(* Rule 8: every library module has an interface                       *)
(* ------------------------------------------------------------------ *)

let missing_mli ctx =
  match ctx.mli_exists with
  | Some false when in_dir "lib" ctx.path && ends_with ".ml" ctx.path ->
    [ { line = 1; message = "library module without a matching `.mli`" } ]
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Rule 9: no quadratic list append on hot paths                       *)
(* ------------------------------------------------------------------ *)

let hot_module path =
  in_dir "lib/batchgcd" path || in_dir "lib/fingerprint" path
  || in_dir "lib/corpus" path
  || path = "lib/netsim/world.ml"

let nontail_append ctx =
  if not (hot_module ctx.path) then []
  else
    let rec run prev = function
      | [] -> []
      | ({ Lexer.kind; line; _ } : Lexer.token) :: rest -> (
        match kind with
        | Lexer.Sym "@" when prev <> Some (Lexer.Sym "[") ->
          (* [@attr] is an attribute, not an append *)
          { line; message = "list append `@` in a hot module" }
          :: run (Some kind) rest
        | Lexer.Ident id when strip_stdlib id = "List.append" ->
          { line; message = "`List.append` in a hot module" }
          :: run (Some kind) rest
        | _ -> run (Some kind) rest)
    in
    run None (code ctx)

(* ------------------------------------------------------------------ *)
(* Rule 10: raw domain primitives only inside lib/parallel             *)
(* ------------------------------------------------------------------ *)

(* Parallelism stays centralised in the Parallel.Pool subsystem: ad-hoc
   Domain.spawn re-introduces the per-call spawn cost the pool exists
   to remove, and bypasses its deterministic failure propagation and
   nesting guard. *)
let domain_primitives = [ "Domain.spawn"; "Domain.join" ]

let domain_outside_parallel ctx =
  if in_dir "lib/parallel" ctx.path then []
  else
    flag_idents
      (fun s -> List.mem (strip_stdlib s) domain_primitives)
      (fun s -> Printf.sprintf "raw domain primitive `%s` outside lib/parallel" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Rule 11: task markers must carry an issue tag                       *)
(* ------------------------------------------------------------------ *)

(* A marker is well-formed when immediately followed by "(#<digits>)",
   e.g. TODO(#42). *)
let marker_tagged text i marker =
  let j = i + String.length marker in
  let len = String.length text in
  j + 2 < len
  && text.[j] = '('
  && text.[j + 1] = '#'
  && (let k = ref (j + 2) in
      while !k < len && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      !k > j + 2 && !k < len && text.[!k] = ')')

let find_markers text =
  let hits = ref [] in
  List.iter
    (fun marker ->
      let mlen = String.length marker in
      let len = String.length text in
      for i = 0 to len - mlen do
        if String.sub text i mlen = marker && not (marker_tagged text i marker)
        then
          (* line offset of the hit inside a multi-line comment *)
          let off = ref 0 in
          (String.iteri (fun k c -> if k < i && c = '\n' then incr off) text;
           hits := (marker, !off) :: !hits)
      done)
    [ "TODO"; "FIXME" ];
  !hits

let todo_issue_tag ctx =
  List.concat_map
    (fun (t : Lexer.token) ->
      match t.kind with
      | Lexer.Comment text ->
        List.map
          (fun (marker, off) ->
            { line = t.line + off;
              message =
                Printf.sprintf "`%s` without an issue tag like `%s(#123)`"
                  marker marker })
          (find_markers text)
      | _ -> [])
    ctx.tokens

(* ------------------------------------------------------------------ *)
(* Rule 12: Hashtbls keyed on modulus limbs belong in lib/corpus       *)
(* ------------------------------------------------------------------ *)

(* The interning boundary: outside lib/corpus, moduli and primes are
   identified by their dense Corpus.Store id, not by their limb array.
   Two lexical patterns: a Hashtbl type whose key component is
   [int array], and a Hashtbl operation passed a [to_limbs] key. *)
let limbs_keyed_hashtbl ctx =
  if in_dir "lib/corpus" ctx.path then []
  else begin
    let toks = Array.of_list (code ctx) in
    let n = Array.length toks in
    let ident i =
      if i < 0 || i >= n then None
      else match toks.(i).Lexer.kind with Lexer.Ident s -> Some s | _ -> None
    in
    let out = ref [] in
    for i = 0 to n - 1 do
      match toks.(i).Lexer.kind with
      | Lexer.Sym "("
        when ident (i + 1) = Some "int" && ident (i + 2) = Some "array" ->
        (* [(int array, _) Hashtbl.t]: the value type is at most a few
           tokens, so a short window suffices for the constructor. *)
        let rec look j =
          if j <= i + 10 && j < n then
            match ident j with
            | Some s when strip_stdlib s = "Hashtbl.t" ->
              out :=
                { line = toks.(i).Lexer.line;
                  message = "Hashtbl keyed on limb arrays (`(int array, _) Hashtbl.t`)" }
                :: !out
            | _ -> look (j + 1)
        in
        look (i + 3)
      | Lexer.Ident s when s = "to_limbs" || ends_with ".to_limbs" s ->
        let hashtbl_op h =
          let h = strip_stdlib h in
          starts_with "Hashtbl." h && h <> "Hashtbl.t"
        in
        let rec back j =
          if j >= 0 && j >= i - 10 then
            match ident j with
            | Some h when hashtbl_op h ->
              out :=
                { line = toks.(i).Lexer.line;
                  message = Printf.sprintf "`%s` used as a Hashtbl key" s }
                :: !out
            | _ -> back (j - 1)
        in
        back (i - 1)
      | _ -> ()
    done;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Rule 13: fingerprint techniques run through the pass registry       *)
(* ------------------------------------------------------------------ *)

(* The attribution engine is the single place where attribution
   techniques execute: every caller outside lib/fingerprint gets its
   vendor labels from the merged Attribution table, so ad-hoc calls to
   a technique's entry point bypass the registry's dependency order,
   evidence merge and per-pass timing. Reads of pass artifacts
   (Shared_prime.overlaps, Openssl_fp.satisfy_probability_random, …)
   stay legal; only the entry points that *run* a technique are
   flagged. Tests exercise techniques in isolation by design. *)
let technique_entry_points =
  [ "Rules.of_certificate"; "Rules.of_record"; "Ibm_clique.detect";
    "Shared_prime.build"; "Rimon.detect"; "Openssl_fp.classify";
    "Openssl_fp.classify_vendors"; "Bit_errors.suspicious";
    "Bit_errors.partition"; "Bit_errors.bitflip_neighbor" ]

let fingerprint_outside_registry ctx =
  if in_dir "lib/fingerprint" ctx.path || in_dir "test" ctx.path then []
  else
    flag_idents
      (fun s ->
        let s =
          if starts_with "Fingerprint." s then
            String.sub s 12 (String.length s - 12)
          else s
        in
        List.mem s technique_entry_points)
      (fun s ->
        Printf.sprintf
          "fingerprint technique entry point `%s` outside the pass registry" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Rule 14: per-modulus limb vectors stay in the arena                 *)
(* ------------------------------------------------------------------ *)

(* A collection of limb vectors ([int array array], [int array list])
   boxes every modulus as its own heap block with its own header and
   GC lifetime. Bulk limb storage belongs to the contiguous Bigarray
   arena (lib/corpus/arena.ml), and lib/bignum owns the scalar
   representation (its kernels allocate such shapes as scratch).
   Anywhere else, the shape is per-modulus boxing creeping back in. *)
let boxed_limb_array ctx =
  if in_dir "lib/bignum" ctx.path || ctx.path = "lib/corpus/arena.ml" then []
  else begin
    let toks = Array.of_list (code ctx) in
    let n = Array.length toks in
    let ident i =
      if i < 0 || i >= n then None
      else match toks.(i).Lexer.kind with Lexer.Ident s -> Some s | _ -> None
    in
    let out = ref [] in
    for i = 0 to n - 3 do
      if ident i = Some "int" && ident (i + 1) = Some "array" then
        match ident (i + 2) with
        | Some (("array" | "list") as outer) ->
          out :=
            { line = toks.(i).Lexer.line;
              message =
                Printf.sprintf
                  "boxed per-modulus limb storage `int array %s`" outer }
            :: !out
        | _ -> ()
    done;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Rule 15: leaf GCDs go through the Nat.gcd dispatcher                *)
(* ------------------------------------------------------------------ *)

(* [Nat.gcd] picks binary vs Lehmer by operand size; calling one of
   the [Nat.Kernel] gcd rungs ([gcd_binary]/[gcd_euclid]/[gcd_lehmer])
   directly — or hand-rolling a [let rec gcd] loop — pins the caller
   to one kernel and silently bypasses that dispatch. The rungs are
   exported precisely for the ablation bench and the cross-kernel
   equivalence tests, so bench/ and test/ are exempt alongside
   lib/bignum itself. *)
let gcd_variants = [ "gcd_euclid"; "gcd_binary"; "gcd_lehmer" ]

let gcd_outside_nat ctx =
  if in_dir "lib/bignum" ctx.path || in_dir "bench" ctx.path
     || in_dir "test" ctx.path
  then []
  else begin
    let variant_calls =
      flag_idents
        (fun s ->
          let s = strip_stdlib s in
          let s =
            match String.rindex_opt s '.' with
            | Some i -> String.sub s (i + 1) (String.length s - i - 1)
            | None -> s
          in
          List.mem s gcd_variants)
        (fun s ->
          Printf.sprintf
            "GCD kernel variant `%s` pinned outside lib/bignum" s)
        ctx
    in
    (* A hand-rolled Euclid loop announces itself as [let rec gcd ...];
       plain [let gcd = ...] aliases of the dispatcher stay legal. *)
    let handrolled =
      let rec run = function
        | ({ Lexer.kind = Lexer.Ident "let"; _ } : Lexer.token)
          :: { Lexer.kind = Lexer.Ident "rec"; _ }
          :: { Lexer.kind = Lexer.Ident name; line; _ } :: rest
          when name = "gcd" || List.mem name gcd_variants ->
          { line;
            message =
              Printf.sprintf "hand-rolled GCD loop `let rec %s`" name }
          :: run rest
        | _ :: rest -> run rest
        | [] -> []
      in
      run (code ctx)
    in
    variant_calls @ handrolled
  end

(* ------------------------------------------------------------------ *)
(* Rule 16: batch-GCD sweeps go through Backend.factor                 *)
(* ------------------------------------------------------------------ *)

(* Product code runs a full sweep as [Batchgcd.Backend.factor] on
   [Backend.tree] or [Backend.ksubset_k k], so the decompositions it
   may pick are named in one module. Calling
   [factor_batch]/[factor_subsets] directly reaches past that
   boundary. lib/batchgcd itself implements the sweeps, and bench/
   and test/ deliberately pin decompositions for timing and
   equality suites. *)
let batchgcd_entry_points =
  [ "factor_batch"; "factor_subsets"; "factor_subsets_trees" ]

let batchgcd_outside_backend ctx =
  if in_dir "lib/batchgcd" ctx.path || in_dir "bench" ctx.path
     || in_dir "test" ctx.path
  then []
  else
    flag_idents
      (fun s ->
        let s = strip_stdlib s in
        let s =
          match String.rindex_opt s '.' with
          | Some i -> String.sub s (i + 1) (String.length s - i - 1)
          | None -> s
        in
        List.mem s batchgcd_entry_points)
      (fun s ->
        Printf.sprintf
          "batch-GCD entry point `%s` called outside Batchgcd.Backend" s)
      ctx

(* ------------------------------------------------------------------ *)
(* Catalogue                                                           *)
(* ------------------------------------------------------------------ *)

let all =
  [
    { id = "det-random";
      severity = Error;
      doc =
        "ambient Stdlib.Random breaks seed-replayable simulation; use \
         Netsim.Det or an explicitly seeded Random.State";
      hint = "derive values from Netsim.Det.int/float/bytes keyed on the seed";
      check = det_random };
    { id = "phys-equal";
      severity = Error;
      doc =
        "== / != compare heap identity; on boxed Nat.t/Zz.t two equal \
         numbers are routinely distinct blocks";
      hint = "use =, Nat.equal or Zz.equal";
      check = phys_equal };
    { id = "poly-compare";
      severity = Error;
      doc =
        "polymorphic compare in lib/bignum and lib/batchgcd orders limb \
         arrays structurally, not numerically";
      hint = "use Nat.compare / Zz.compare / Nat.equal";
      check = poly_compare };
    { id = "catchall-exn";
      severity = Error;
      doc = "try ... with _ -> silently swallows every exception, \
             including Out_of_memory and Assert_failure";
      hint = "match the specific exception, or bind it and re-raise";
      check = catchall_exn };
    { id = "lib-stdout";
      severity = Error;
      doc =
        "library code must not print; all reporting goes through \
         Weakkeys.Report so the CLI owns the channel";
      hint = "return a string / Buffer, or extend Weakkeys.Report";
      check = lib_stdout };
    { id = "failwith-outside-exn";
      severity = Warning;
      doc =
        "failwith-raising helpers must advertise it with an _exn suffix \
         so callers know to handle Failure";
      hint = "rename the function to *_exn, or return an option/result";
      check = failwith_outside_exn };
    { id = "toplevel-ref";
      severity = Warning;
      doc =
        "top-level refs are cross-run, cross-domain shared state; they \
         break replay determinism and the parallel batch-GCD pool";
      hint = "thread the state through a record, or suppress for a \
              deliberate tuning knob";
      check = toplevel_ref };
    { id = "missing-mli";
      severity = Error;
      doc = "every lib/ module needs a .mli so the public surface is \
             explicit and warnings stay meaningful";
      hint = "add a matching .mli next to the .ml";
      check = missing_mli };
    { id = "nontail-append";
      severity = Warning;
      doc =
        "@ / List.append are O(n) per use and not tail-recursive; the \
         batch-GCD trees and world stepping are hot paths";
      hint = "accumulate with List.rev_append or a Buffer";
      check = nontail_append };
    { id = "domain-outside-parallel";
      severity = Error;
      doc =
        "Domain.spawn / Domain.join outside lib/parallel bypasses the \
         persistent pool (per-call spawn cost, no deterministic failure \
         propagation, no nesting guard)";
      hint = "use Parallel.Pool.map / parallel_for, or extend lib/parallel";
      check = domain_outside_parallel };
    { id = "todo-issue-tag";
      severity = Warning;
      doc = "untracked TODO/FIXME comments rot; tie them to an issue";
      hint = "write TODO(#<issue>) or delete the comment";
      check = todo_issue_tag };
    { id = "limbs-keyed-hashtbl";
      severity = Warning;
      doc =
        "Hashtbl keyed on Nat.to_limbs limb arrays outside lib/corpus \
         bypasses the interning store and copies key material per lookup";
      hint =
        "intern the value with Corpus.Store and key on the dense int id \
         (int-keyed Hashtbl, array or Corpus.Id_set)";
      check = limbs_keyed_hashtbl };
    { id = "boxed-limb-array";
      severity = Warning;
      doc =
        "`int array array` / `int array list` box every modulus's limbs \
         as a separate heap block; bulk limb storage lives in the \
         contiguous corpus arena";
      hint =
        "store limbs through Corpus.Arena / Corpus.Store and address \
         them by dense id (or keep the shape inside lib/bignum's kernels)";
      check = boxed_limb_array };
    { id = "fingerprint-outside-registry";
      severity = Warning;
      doc =
        "attribution techniques run only as registered passes; direct \
         calls to their entry points outside lib/fingerprint bypass the \
         registry's dependency order, evidence merge and timings";
      hint =
        "query Fingerprint.Attribution (or a Pipeline derived view), or \
         register a new Pass in Fingerprint.Registry";
      check = fingerprint_outside_registry };
    { id = "gcd-outside-nat";
      severity = Warning;
      doc =
        "direct calls to the Nat.Kernel gcd rungs \
         (gcd_euclid/gcd_binary/gcd_lehmer) — or hand-rolled `let rec \
         gcd` loops — outside lib/bignum pin a caller to one kernel and \
         bypass the size-dispatched Lehmer path";
      hint =
        "call Nat.gcd and let the dispatcher pick the kernel (the \
         Nat.Kernel rungs are for bench/ ablations and test/ \
         equivalence suites)";
      check = gcd_outside_nat };
    { id = "batchgcd-outside-backend";
      severity = Warning;
      doc =
        "direct calls to factor_batch/factor_subsets outside \
         lib/batchgcd reach past Batchgcd.Backend, the one module \
         that names the sweep decompositions product code runs";
      hint =
        "call Batchgcd.Backend.factor on Backend.tree or \
         Backend.ksubset_k (bench/ timings and test/ equality suites \
         stay exempt)";
      check = batchgcd_outside_backend };
  ]

(* ------------------------------------------------------------------ *)
(* Deep (whole-program) analyses                                       *)
(* ------------------------------------------------------------------ *)

(* These rules have no per-file [check]: the engine computes their
   findings from the cross-file module graph and effect inference and
   attributes them back to these ids for severity, doc, and
   suppression handling. *)
let deep_check (_ : ctx) : finding list = []

let deep =
  [
    { id = "layer-violation";
      severity = Error;
      doc =
        "unit directories form an ordered layer cake (bignum at the \
         bottom, bin/test/bench on top); dependencies may point \
         sideways or down, never up, and skip-listed edges are banned \
         outright";
      hint =
        "move the shared code down a layer, or add a justified entry to \
         the Layers spec allow-list";
      check = deep_check };
    { id = "pool-capture-race";
      severity = Warning;
      doc =
        "a closure handed to Parallel.Pool.map / parallel_for that \
         mutates captured state, performs IO, or (transitively) calls \
         something that does races across domains";
      hint =
        "return values and merge sequentially after the join, write \
         into disjoint a.(i) slots, or use Atomic";
      check = deep_check };
    { id = "pass-ctx-mutation";
      severity = Error;
      doc =
        "attribution pass bodies receive the shared Pass.Ctx read-only; \
         mutating it from inside a pass breaks registry replay and \
         pass independence";
      hint =
        "build pass-local state and return it in the pass result \
         instead of writing through ctx";
      check = deep_check };
    { id = "unused-suppression";
      severity = Warning;
      doc =
        "a `(* lint: allow <rule> *)` directive whose rule no longer \
         fires on the lines it covers is dead weight and hides future \
         regressions";
      hint = "delete the stale directive";
      check = deep_check };
  ]

let find id = List.find_opt (fun r -> r.id = id) (all @ deep)
