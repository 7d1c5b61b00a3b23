(* Tests for the weakkeys-lint engine: one flagged and one clean
   fixture per rule, plus suppression-comment handling and the
   string/comment false-positive cases the lexer must survive. The
   fixtures live in OCaml string literals, which also demonstrates why
   the linter itself can safely scan this file. *)

module E = Lint.Engine
module R = Lint.Rules

let rules_of ?(path = "lib/netsim/world.ml") ?mli_exists src =
  List.map (fun (f : E.finding) -> f.E.rule) (E.lint_source ~path ?mli_exists src)

let flags rule ?path ?mli_exists src = List.mem rule (rules_of ?path ?mli_exists src)

let check_flagged name rule ?path ?mli_exists src =
  Alcotest.(check bool) name true (flags rule ?path ?mli_exists src)

let check_clean name rule ?path ?mli_exists src =
  Alcotest.(check bool) name false (flags rule ?path ?mli_exists src)

(* ------------------------------------------------------------------ *)
(* Catalogue sanity                                                    *)
(* ------------------------------------------------------------------ *)

let test_catalogue () =
  Alcotest.(check int) "sixteen lexical rules" 16 (List.length R.all);
  Alcotest.(check int) "four deep analyses" 4 (List.length R.deep);
  let ids = List.map (fun (r : R.t) -> r.R.id) (R.all @ R.deep) in
  Alcotest.(check int) "ids unique"
    (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  Alcotest.(check bool) "find known" true (R.find "det-random" <> None);
  Alcotest.(check bool) "find deep" true (R.find "pool-capture-race" <> None);
  Alcotest.(check bool) "find unknown" true (R.find "no-such-rule" = None)

(* ------------------------------------------------------------------ *)
(* Rule fixtures                                                       *)
(* ------------------------------------------------------------------ *)

let test_det_random () =
  check_flagged "ambient RNG" "det-random" "let x = Random.int 5";
  check_flagged "self_init" "det-random" "let () = Random.self_init ()";
  check_flagged "Stdlib-qualified" "det-random" "let x = Stdlib.Random.bits ()";
  check_flagged "self-seeding state" "det-random"
    "let st = Random.State.make_self_init ()";
  check_clean "det.ml is exempt" "det-random" ~path:"lib/netsim/det.ml"
    "let x = Random.int 5";
  check_clean "seeded explicit state" "det-random"
    "let st = Random.State.make [| seed |] in Random.State.int st 256";
  check_clean "own module named random" "det-random"
    "let x = My_random.int 5"

let test_phys_equal () =
  check_flagged "==" "phys-equal" "let f a b = a == b";
  check_flagged "!=" "phys-equal" "let f a b = a != b";
  check_clean "structural =" "phys-equal" "let f a b = a = b && a <> b";
  check_clean "deref then compare" "phys-equal" "let f r s = !r = !s";
  check_clean "inside string" "phys-equal" {|let s = "p != 1 mod e"|};
  check_clean "inside comment" "phys-equal" "(* a == b *) let x = 1"

let test_poly_compare () =
  let path = "lib/bignum/prime.ml" in
  check_flagged "bare compare" "poly-compare" ~path "let f a b = compare a b";
  check_flagged "Stdlib.compare" "poly-compare" ~path
    "let f a b = Stdlib.compare a b";
  check_clean "module-specific" "poly-compare" ~path "let f a b = Nat.compare a b";
  check_clean "locally defined compare" "poly-compare" ~path
    "let compare a b = go a b\nlet max a b = if compare a b >= 0 then a else b";
  check_clean "out of scope" "poly-compare" ~path:"lib/analysis/dataset.ml"
    "let f a b = compare a b"

let test_catchall_exn () =
  check_flagged "swallows all" "catchall-exn" "let f () = try g () with _ -> 0";
  check_flagged "leading bar" "catchall-exn"
    "let f () = try g () with | _ -> 0";
  check_clean "specific exception" "catchall-exn"
    "let f () = try g () with Not_found -> 0";
  check_clean "named binder" "catchall-exn"
    "let f () = try g () with _e -> log _e; raise _e";
  check_clean "match wildcard is fine" "catchall-exn"
    "let f x = match x with _ -> 0";
  check_clean "record update with" "catchall-exn"
    "let f r = { r with field = 1 }";
  check_flagged "try inside match" "catchall-exn"
    "let f x = match try g x with _ -> None with Some y -> y | None -> 0"

let test_lib_stdout () =
  let path = "lib/core/pipeline.ml" in
  check_flagged "printf" "lib-stdout" ~path {|let () = Printf.printf "x"|};
  check_flagged "print_endline" "lib-stdout" ~path {|let () = print_endline "x"|};
  check_clean "sprintf is pure" "lib-stdout" ~path {|let s = Printf.sprintf "x"|};
  check_clean "formatter pp is fine" "lib-stdout" ~path
    "let pp fmt t = Format.pp_print_string fmt t";
  check_clean "binaries may print" "lib-stdout" ~path:"bin/weakkeys_cli.ml"
    {|let () = Printf.printf "x"|}

let test_failwith_outside_exn () =
  check_flagged "plain function" "failwith-outside-exn"
    {|let parse x = failwith "bad"|};
  check_clean "_exn function" "failwith-outside-exn"
    {|let parse_exn x = failwith "bad"|};
  check_clean "helper inside _exn" "failwith-outside-exn"
    "let parse_exn x =\n  let go y = failwith \"bad\" in\n  go x";
  (* the structure parser tracks nested [let ... in] chains, so a
     raising helper inside a non-_exn function is caught even though
     the column-0 binding looks innocent *)
  check_flagged "nested helper in plain function" "failwith-outside-exn"
    "let outer x =\n  let helper y = failwith \"bad\" in\n  helper x";
  check_clean "nested _exn helper sanctions its body" "failwith-outside-exn"
    "let outer x =\n\
    \  let go_exn y = failwith \"bad\" in\n\
    \  try go_exn x with Failure _ -> 0";
  check_flagged "deeply nested" "failwith-outside-exn"
    "let outer x =\n\
    \  let mid y =\n\
    \    let inner z = failwith \"bad\" in\n\
    \    inner y\n\
    \  in\n\
    \  mid x"

let test_toplevel_ref () =
  check_flagged "top-level ref" "toplevel-ref" "let counter = ref 0";
  check_clean "local ref" "toplevel-ref" "let f () =\n  let c = ref 0 in\n  !c";
  check_clean "tests may use refs" "toplevel-ref" ~path:"test/test_x.ml"
    "let counter = ref 0"

let test_missing_mli () =
  check_flagged "no interface" "missing-mli" ~path:"lib/rsa/keypair.ml"
    ~mli_exists:false "let x = 1";
  check_clean "interface present" "missing-mli" ~path:"lib/rsa/keypair.ml"
    ~mli_exists:true "let x = 1";
  check_clean "tests need no mli" "missing-mli" ~path:"test/test_x.ml"
    ~mli_exists:false "let x = 1";
  check_clean "unknown on snippets" "missing-mli" ~path:"lib/rsa/keypair.ml"
    "let x = 1"

let test_nontail_append () =
  let path = "lib/batchgcd/product_tree.ml" in
  check_flagged "@ operator" "nontail-append" ~path "let f a b = a @ b";
  check_flagged "List.append" "nontail-append" ~path "let f a b = List.append a b";
  check_flagged "world.ml is hot" "nontail-append" ~path:"lib/netsim/world.ml"
    "let f a b = a @ b";
  check_flagged "fingerprint is hot" "nontail-append"
    ~path:"lib/fingerprint/attribution.ml" "let f a b = a @ b";
  check_flagged "corpus is hot" "nontail-append" ~path:"lib/corpus/store.ml"
    "let f a b = List.append a b";
  check_clean "@@ is not @" "nontail-append" ~path "let f x = g @@ x";
  check_clean "attribute bracket" "nontail-append" ~path
    {|let f x = (x [@warning "-8"])|};
  check_clean "cold modules may append" "nontail-append"
    ~path:"lib/analysis/dataset.ml" "let f a b = a @ b"

let test_domain_outside_parallel () =
  check_flagged "spawn in batchgcd" "domain-outside-parallel"
    ~path:"lib/batchgcd/batch_gcd.ml" "let d = Domain.spawn f";
  check_flagged "join in tests" "domain-outside-parallel"
    ~path:"test/test_batchgcd.ml" "let () = Domain.join d";
  check_flagged "Stdlib-qualified" "domain-outside-parallel"
    ~path:"lib/netsim/world.ml" "let d = Stdlib.Domain.spawn f";
  check_clean "pool implementation is exempt" "domain-outside-parallel"
    ~path:"lib/parallel/pool.ml" "let d = Domain.spawn f";
  check_clean "other Domain functions are fine" "domain-outside-parallel"
    ~path:"lib/batchgcd/batch_gcd.ml"
    "let n = Domain.recommended_domain_count ()";
  check_clean "own module named Domain_x" "domain-outside-parallel"
    ~path:"lib/netsim/world.ml" "let d = Domain_pool.spawn f"

let test_todo_issue_tag () =
  check_flagged "untagged TODO" "todo-issue-tag" "(* TODO: fix *) let x = 1";
  check_flagged "untagged FIXME" "todo-issue-tag" "(* FIXME broken *) let x = 1";
  check_clean "tagged TODO" "todo-issue-tag" "(* TODO(#42): fix *) let x = 1";
  check_clean "TODO in string" "todo-issue-tag" {|let s = "TODO later"|};
  check_clean "lowercase identifier" "todo-issue-tag" "let todo = 1"

let test_limbs_keyed_hashtbl () =
  let path = "lib/core/pipeline.ml" in
  check_flagged "replace with to_limbs key" "limbs-keyed-hashtbl" ~path
    "let () = Hashtbl.replace tbl (N.to_limbs m) ()";
  check_flagged "find_opt with to_limbs key" "limbs-keyed-hashtbl" ~path
    "let c = Hashtbl.find_opt counts (Bignum.Nat.to_limbs pr)";
  check_flagged "int array key type" "limbs-keyed-hashtbl" ~path
    "let tbl : (int array, unit) Hashtbl.t = Hashtbl.create 16";
  check_clean "lib/corpus owns the boundary" "limbs-keyed-hashtbl"
    ~path:"lib/corpus/store.ml"
    "let () = Hashtbl.replace tbl (N.to_limbs m) ()";
  check_clean "string-keyed table" "limbs-keyed-hashtbl" ~path
    "let tbl : (string, int) Hashtbl.t = Hashtbl.create 16";
  check_clean "int array as value type" "limbs-keyed-hashtbl" ~path
    "let tbl : (string, int array) Hashtbl.t = Hashtbl.create 16";
  check_clean "to_limbs without a table" "limbs-keyed-hashtbl" ~path
    "let limbs = N.to_limbs m in Array.length limbs"

let test_boxed_limb_array () =
  let rule = "boxed-limb-array" in
  let path = "lib/batchgcd/incremental.ml" in
  check_flagged "matrix of limb vectors" rule ~path
    "let segs : int array array = collect t";
  check_flagged "list of limb vectors" rule ~path
    "type t = { pending : int array list }";
  check_flagged "binaries are in scope" rule ~path:"bin/weakkeys_cli.ml"
    "let batches : int array array = load path";
  check_clean "bignum kernels are exempt" rule ~path:"lib/bignum/toom.ml"
    "let scratch : int array array = Array.make k [||]";
  check_clean "the arena owns bulk storage" rule ~path:"lib/corpus/arena.ml"
    "let pending : int array list = queued t";
  check_clean "plain limb vector" rule ~path
    "let limbs : int array = N.to_limbs m";
  check_clean "hashtbl key type is the other rule" rule ~path
    "let tbl : (int array, int) Hashtbl.t = Hashtbl.create 7";
  check_clean "inside a comment" rule ~path "(* int array array *) let x = 1"

let test_fingerprint_outside_registry () =
  let rule = "fingerprint-outside-registry" in
  let path = "lib/core/report.ml" in
  check_flagged "qualified technique call" rule ~path
    "let ds = Fingerprint.Rimon.detect scans";
  check_flagged "unqualified inside an opened module" rule ~path
    "let cs = Ibm_clique.detect factored";
  check_flagged "binaries are in scope" rule ~path:"bin/weakkeys_cli.ml"
    "let l = Fingerprint.Rules.of_certificate cert";
  check_clean "artifact reads are legal" rule ~path
    "let os = Fingerprint.Shared_prime.overlaps shared";
  check_clean "registry implementation is exempt" rule
    ~path:"lib/fingerprint/registry.ml" "let ds = Rimon.detect ctx.scans";
  check_clean "tests exercise techniques directly" rule
    ~path:"test/test_export.ml"
    "let ds = Fingerprint.Rimon.detect ~min_ips:5 scans"

let test_gcd_outside_nat () =
  let rule = "gcd-outside-nat" in
  let path = "lib/batchgcd/batch_gcd.ml" in
  check_flagged "qualified variant call" rule ~path
    "let g = Nat.Kernel.gcd_binary m z";
  check_flagged "fully qualified variant call" rule ~path
    "let g = Bignum.Nat.Kernel.gcd_euclid m z";
  check_flagged "unqualified inside an opened module" rule ~path
    "let g = gcd_lehmer m z";
  check_flagged "hand-rolled Euclid loop" rule ~path
    "let rec gcd a b = if N.is_zero b then a else gcd b (N.rem a b)";
  check_flagged "binaries are in scope" rule ~path:"bin/weakkeys_cli.ml"
    "let g = Nat.Kernel.gcd_euclid m z";
  check_clean "dispatcher call is the sanctioned path" rule ~path
    "let g = Nat.gcd m z";
  check_clean "non-rec alias of the dispatcher" rule ~path
    "let gcd = N.gcd";
  check_clean "gcd-prefixed identifiers are not kernels" rule
    ~path:"lib/core/pipeline.ml"
    "let gcd_findings = function Some g -> g.findings | None -> []";
  check_clean "kernel implementations are exempt" rule
    ~path:"lib/bignum/nat.ml"
    "let gcd a b = if small b then gcd_binary a b else gcd_lehmer a b";
  check_clean "ablation bench is exempt" rule ~path:"bench/main.ml"
    "let r = N.Kernel.gcd_euclid a b";
  check_clean "equivalence tests are exempt" rule ~path:"test/test_nat.ml"
    "let bin = N.Kernel.gcd_binary a b"

let test_batchgcd_outside_backend () =
  let rule = "batchgcd-outside-backend" in
  check_flagged "qualified entry point in lib/core" rule
    ~path:"lib/core/pipeline.ml"
    "let fs = Batchgcd.Batch_gcd.factor_batch ~pool corpus";
  check_flagged "short-qualified entry point" rule ~path:"lib/core/report.ml"
    "let fs = BG.factor_subsets ~k:4 sample";
  check_flagged "binaries are in scope" rule ~path:"bin/weakkeys_cli.ml"
    "let fs = Batchgcd.Batch_gcd.factor_subsets ~k moduli";
  check_flagged "forest seeding entry point" rule ~path:"lib/core/pipeline.ml"
    "let segs, fs = BG.factor_subsets_trees ~pool ~k corpus";
  check_clean "Backend.factor is the sanctioned path" rule
    ~path:"lib/core/pipeline.ml"
    "let fs = Batchgcd.Backend.factor b ~pool corpus";
  check_clean "backend implementations are exempt" rule
    ~path:"lib/batchgcd/backend.ml"
    "let tree_factor ?pool ?domains ms = BG.factor_batch ?pool ?domains ms";
  check_clean "bench is exempt" rule ~path:"bench/main.ml"
    "let fs = Batchgcd.Batch_gcd.factor_batch ~pool corpus";
  check_clean "equality tests are exempt" rule ~path:"test/test_batchgcd.ml"
    "let fs = BG.factor_subsets ~k:3 moduli";
  check_clean "factor-prefixed identifiers are not entry points" rule
    ~path:"lib/core/pipeline.ml"
    "let factor_batches = List.length batches"

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

let test_suppressions () =
  check_clean "trailing same line" "det-random"
    "let x = Random.int 5 (* lint: allow det-random *)";
  check_clean "line above" "det-random"
    "(* lint: allow det-random *)\nlet x = Random.int 5";
  check_flagged "wrong rule id" "det-random"
    "(* lint: allow phys-equal *)\nlet x = Random.int 5";
  check_flagged "too far above" "det-random"
    "(* lint: allow det-random *)\nlet y = 1\nlet x = Random.int 5";
  check_clean "several ids, first" "det-random"
    "(* lint: allow det-random, phys-equal *)\nlet x = Random.int 5 == y";
  check_clean "several ids, second" "phys-equal"
    "(* lint: allow det-random, phys-equal *)\nlet x = Random.int 5 == y";
  check_clean "justification prose" "toplevel-ref"
    "let c = ref 0 (* lint: allow toplevel-ref for a tuning knob *)"

(* ------------------------------------------------------------------ *)
(* Deep analyses (whole-program, via lint_units)                       *)
(* ------------------------------------------------------------------ *)

let deep_findings units =
  E.lint_units ~deep:true
    (List.map
       (fun (p, s) -> { E.src_path = p; mli_exists = None; src = s })
       units)

let deep_flags rule path units =
  List.exists
    (fun (f : E.finding) -> f.E.rule = rule && f.E.path = path)
    (deep_findings units)

let check_deep_flagged name rule path units =
  Alcotest.(check bool) name true (deep_flags rule path units)

let check_deep_clean name rule path units =
  Alcotest.(check bool) name false (deep_flags rule path units)

let test_layering () =
  let corpus = ("lib/corpus/store.ml", "let create () = 1") in
  (* corpus-arena is the bottom layer: its only sanctioned edge is the
     allow-listed one to bignum, so reaching the pool is upward *)
  check_deep_flagged "synthetic upward edge" "layer-violation"
    "lib/corpus/uses_pool.ml"
    [ ("lib/parallel/pool.ml", "let go f = f ()");
      ("lib/corpus/uses_pool.ml", "let x = Parallel.Pool.go (fun () -> 1)") ];
  check_deep_clean "downward edge is legal" "layer-violation"
    "lib/batchgcd/uses.ml"
    [ corpus; ("lib/batchgcd/uses.ml", "let y = Corpus.Store.create ()") ];
  (* the committed allow-list covers the corpus -> bignum storage edge *)
  check_deep_clean "corpus -> bignum allow-listed" "layer-violation"
    "lib/corpus/uses.ml"
    [ ("lib/bignum/nat_extra.ml", "let x = 1");
      ("lib/corpus/uses.ml", "let y = Bignum.Nat_extra.x") ];
  (* netsim -> fingerprint points downward but is skip-listed *)
  check_deep_flagged "skip-listed edge" "layer-violation"
    "lib/netsim/world_extra.ml"
    [ ("lib/fingerprint/rimon.ml", "let detect xs = xs");
      ("lib/netsim/world_extra.ml",
       "let d = Fingerprint.Rimon.detect []") ];
  (* the committed allow-list covers the real bignum -> parallel trade *)
  check_deep_clean "allow-listed edge" "layer-violation" "lib/bignum/nat_extra.ml"
    [ ("lib/parallel/pool.ml", "let go f = f ()");
      ("lib/bignum/nat_extra.ml", "let x = Parallel.Pool.go (fun () -> 1)") ]

let test_pool_capture_race () =
  let rule = "pool-capture-race" in
  let path = "lib/analysis/histo_extra.ml" in
  check_deep_flagged "closure mutating captured ref" rule path
    [ ( path,
        "let total = ref 0 (* lint: allow toplevel-ref *)\n\
         let run pool xs =\n\
        \  Parallel.Pool.map ~pool (fun x -> total := !total + x; x) xs" ) ];
  check_deep_clean "accumulator-free equivalent" rule path
    [ (path, "let run pool xs = Parallel.Pool.map ~pool (fun x -> x * 2) xs") ];
  check_deep_clean "disjoint element writes are sanctioned" rule path
    [ ( path,
        "let run pool out n =\n\
        \  Parallel.Pool.parallel_for pool 0 n (fun i -> out.(i) <- i)" ) ];
  check_deep_flagged "named function with IO" rule path
    [ ( path,
        "let log_it x = Printf.printf \"%d\" x (* lint: allow lib-stdout *)\n\
         let run pool xs = Parallel.Pool.map ~pool log_it xs" ) ];
  check_deep_flagged "transitive mutation through a callee" rule path
    [ ( path,
        "let tbl = Hashtbl.create 3\n\
         let memo x = Hashtbl.replace tbl x x\n\
         let step x = memo x; x\n\
         let run pool xs = Parallel.Pool.map ~pool step xs" ) ];
  check_deep_clean "pure named function" rule path
    [ ( path,
        "let double x = x * 2\n\
         let run pool xs = Parallel.Pool.map ~pool double xs" ) ]

let test_pass_ctx_mutation () =
  let rule = "pass-ctx-mutation" in
  let path = "lib/fingerprint/pass_extra.ml" in
  check_deep_flagged "field store through ctx" rule path
    [ (path, "let run ctx attr =\n  ctx.cache <- 1;\n  attr") ];
  check_deep_flagged "Hashtbl.replace on a ctx field" rule path
    [ (path, "let run ctx attr = Hashtbl.replace ctx.tbl 1 2; attr") ];
  check_deep_clean "pass-local table is fine" rule path
    [ ( path,
        "let run ctx attr =\n\
        \  let t = Hashtbl.create 3 in\n\
        \  Hashtbl.replace t 1 2;\n\
        \  attr" ) ];
  check_deep_clean "reads are fine" rule path
    [ (path, "let run ctx attr = Hashtbl.find_opt ctx.tbl 1") ];
  check_deep_clean "other directories are out of scope" rule
    "lib/analysis/pass_extra.ml"
    [ ("lib/analysis/pass_extra.ml", "let run ctx attr = ctx.cache <- 1; attr") ]

let test_unused_suppression () =
  let rule = "unused-suppression" in
  let path = "lib/analysis/sup_extra.ml" in
  check_deep_flagged "planted stale directive" rule path
    [ (path, "(* lint: allow det-random *)\nlet x = 1") ];
  check_deep_clean "directive that fires" rule path
    [ (path, "(* lint: allow det-random *)\nlet x = Random.int 5") ];
  check_deep_clean "justification prose is not an id" rule path
    [ ( path,
        "let c = ref 0 (* lint: allow toplevel-ref for a tuning knob *)" ) ];
  (* shallow runs never audit: the directive set is only meaningful
     against the full finding set *)
  Alcotest.(check bool) "no audit in shallow mode" false
    (List.exists
       (fun (f : E.finding) -> f.E.rule = rule)
       (E.lint_source ~path "(* lint: allow det-random *)\nlet x = 1"))

(* ------------------------------------------------------------------ *)
(* JSON round-trip and baseline                                        *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let fs =
    E.lint_source ~path:"lib/x/y.ml"
      "let f a b = a == b\nlet g = Random.int 5\nlet s = \"quote \\\" here\""
  in
  Alcotest.(check bool) "fixture has findings" true (fs <> []);
  (match E.findings_of_json (E.to_json fs) with
  | Ok fs' ->
    Alcotest.(check int) "same count" (List.length fs) (List.length fs');
    List.iter2
      (fun (a : E.finding) (b : E.finding) ->
        Alcotest.(check string) "rule" a.E.rule b.E.rule;
        Alcotest.(check string) "path" a.E.path b.E.path;
        Alcotest.(check int) "line" a.E.line b.E.line;
        Alcotest.(check string) "message" a.E.message b.E.message;
        Alcotest.(check string) "hint" a.E.hint b.E.hint;
        Alcotest.(check bool) "severity" true (a.E.severity = b.E.severity))
      fs fs'
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (match E.findings_of_json "nonsense" with
  | Ok _ -> Alcotest.fail "parsed nonsense"
  | Error _ -> ());
  match E.findings_of_json "[\n]" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "empty array should have no findings"
  | Error e -> Alcotest.failf "empty array: %s" e

module B = Lint.Baseline

let test_baseline_compare () =
  let f1 = ("r1", "a.ml", "m1") and f2 = ("r2", "b.ml", "m2") in
  let base = B.of_findings [ f1; f1; f2 ] in
  Alcotest.(check int) "two entries" 2 (List.length base);
  Alcotest.(check int) "duplicate counted"
    2 (List.hd base).B.count;
  let all_matched = B.compare_run base [ f1; f2 ] in
  Alcotest.(check int) "no fresh" 0 (List.length all_matched.B.fresh);
  Alcotest.(check int) "no stale" 0 (List.length all_matched.B.stale);
  let one_gone = B.compare_run base [ f1 ] in
  Alcotest.(check int) "f2 is stale" 1 (List.length one_gone.B.stale);
  Alcotest.(check string) "stale entry is f2" "r2"
    (List.hd one_gone.B.stale).B.rule;
  let one_new = B.compare_run base [ f1; f2; ("r3", "c.ml", "m3") ] in
  (match one_new.B.fresh with
  | [ ("r3", "c.ml", "m3") ] -> ()
  | _ -> Alcotest.fail "expected exactly the r3 finding to be fresh");
  (* round-trip through disk *)
  let file = Filename.temp_file "weakkeys_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      B.save file base;
      match B.load file with
      | Ok base' ->
        Alcotest.(check int) "reload count" (List.length base)
          (List.length base');
        List.iter2
          (fun (a : B.entry) (b : B.entry) ->
            Alcotest.(check string) "rule" a.B.rule b.B.rule;
            Alcotest.(check string) "path" a.B.path b.B.path;
            Alcotest.(check string) "message" a.B.message b.B.message;
            Alcotest.(check int) "count" a.B.count b.B.count)
          base base'
      | Error e -> Alcotest.failf "reload failed: %s" e);
  (match B.load "/no/such/baseline.json" with
  | Ok _ -> Alcotest.fail "loaded a missing file"
  | Error _ -> ());
  match Result.bind (Lint.Json.parse "{\"not\": \"a list\"}") B.of_json with
  | Ok _ -> Alcotest.fail "accepted a non-array baseline"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Exit codes, through the installed binary                            *)
(* ------------------------------------------------------------------ *)

let lint_exe = Filename.concat (Filename.concat ".." "bin") "weakkeys_lint.exe"

let run_lint args =
  Sys.command
    (Filename.quote lint_exe ^ " " ^ args ^ " > /dev/null 2> /dev/null")

let with_tmpdir f =
  let dir = Filename.temp_file "weakkeys_lint_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let ( // ) = Filename.concat

let test_exit_codes () =
  if not (Sys.file_exists lint_exe) then
    Alcotest.fail "linter binary not built (dune dep missing)"
  else
    with_tmpdir (fun dir ->
        write_file (dir // "clean.ml") "let x = 1\n";
        Alcotest.(check int) "clean tree exits 0" 0
          (run_lint (Filename.quote (dir // "clean.ml")));
        write_file (dir // "bad.ml") "let f a b = a == b\n";
        Alcotest.(check int) "findings exit 1" 1
          (run_lint (Filename.quote dir));
        Alcotest.(check int) "findings exit 1 with --json" 1
          (run_lint ("--json " ^ Filename.quote dir));
        Alcotest.(check int) "unknown flag exits 2" 2
          (run_lint "--no-such-flag");
        Alcotest.(check int) "missing path exits 2" 2
          (run_lint (Filename.quote (dir // "nope"))))

let test_baseline_workflow () =
  if not (Sys.file_exists lint_exe) then
    Alcotest.fail "linter binary not built (dune dep missing)"
  else
    with_tmpdir (fun dir ->
        let bad = dir // "bad.ml" in
        let base = dir // "base.json" in
        write_file bad "let f a b = a == b\n";
        Alcotest.(check int) "--write-baseline exits 0" 0
          (run_lint
             (Printf.sprintf "--deep --write-baseline %s %s"
                (Filename.quote base) (Filename.quote dir)));
        Alcotest.(check int) "baselined run exits 0" 0
          (run_lint
             (Printf.sprintf "--deep --baseline %s %s" (Filename.quote base)
                (Filename.quote dir)));
        (* a fresh finding not in the baseline fails the run *)
        write_file (dir // "worse.ml") "let g a b = a != b\n";
        Alcotest.(check int) "fresh finding exits 1" 1
          (run_lint
             (Printf.sprintf "--deep --baseline %s %s" (Filename.quote base)
                (Filename.quote dir)));
        Sys.remove (dir // "worse.ml");
        (* fixing the baselined finding makes its entry stale, which
           also fails: the ratchet only moves by editing the file *)
        write_file bad "let f a b = a = b\n";
        Alcotest.(check int) "stale entry exits 1" 1
          (run_lint
             (Printf.sprintf "--deep --baseline %s %s" (Filename.quote base)
                (Filename.quote dir)));
        Alcotest.(check int) "malformed baseline exits 2" 2
          (write_file base "{ not an array ";
           run_lint
             (Printf.sprintf "--deep --baseline %s %s" (Filename.quote base)
                (Filename.quote dir))))

(* ------------------------------------------------------------------ *)
(* Positions and output formats                                        *)
(* ------------------------------------------------------------------ *)

let test_positions_and_output () =
  let src = "(* multi\n   line\n   comment *)\nlet f a b = a == b\n" in
  (match E.lint_source ~path:"lib/x/y.ml" src with
  | [ f ] ->
    Alcotest.(check int) "line past multi-line comment" 4 f.E.line;
    Alcotest.(check string) "rule id" "phys-equal" f.E.rule
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  let fs = E.lint_source ~path:"lib/x/y.ml" "let a = Random.int 5" in
  let json = E.to_json fs in
  Alcotest.(check bool) "json names rule" true
    (let sub = {|"rule": "det-random"|} in
     let rec search i =
       i + String.length sub <= String.length json
       && (String.sub json i (String.length sub) = sub || search (i + 1))
     in
     search 0);
  Alcotest.(check bool) "text has summary" true
    (String.length (E.to_text fs) > 0);
  Alcotest.(check string) "clean json is empty array" "[\n]" (E.to_json [])

let tests =
  [
    Alcotest.test_case "catalogue" `Quick test_catalogue;
    Alcotest.test_case "det-random" `Quick test_det_random;
    Alcotest.test_case "phys-equal" `Quick test_phys_equal;
    Alcotest.test_case "poly-compare" `Quick test_poly_compare;
    Alcotest.test_case "catchall-exn" `Quick test_catchall_exn;
    Alcotest.test_case "lib-stdout" `Quick test_lib_stdout;
    Alcotest.test_case "failwith-outside-exn" `Quick test_failwith_outside_exn;
    Alcotest.test_case "toplevel-ref" `Quick test_toplevel_ref;
    Alcotest.test_case "missing-mli" `Quick test_missing_mli;
    Alcotest.test_case "nontail-append" `Quick test_nontail_append;
    Alcotest.test_case "domain-outside-parallel" `Quick
      test_domain_outside_parallel;
    Alcotest.test_case "todo-issue-tag" `Quick test_todo_issue_tag;
    Alcotest.test_case "limbs-keyed-hashtbl" `Quick test_limbs_keyed_hashtbl;
    Alcotest.test_case "boxed-limb-array" `Quick test_boxed_limb_array;
    Alcotest.test_case "fingerprint-outside-registry" `Quick
      test_fingerprint_outside_registry;
    Alcotest.test_case "gcd-outside-nat" `Quick test_gcd_outside_nat;
    Alcotest.test_case "batchgcd-outside-backend" `Quick
      test_batchgcd_outside_backend;
    Alcotest.test_case "suppressions" `Quick test_suppressions;
    Alcotest.test_case "positions-and-output" `Quick test_positions_and_output;
    Alcotest.test_case "layering" `Quick test_layering;
    Alcotest.test_case "pool-capture-race" `Quick test_pool_capture_race;
    Alcotest.test_case "pass-ctx-mutation" `Quick test_pass_ctx_mutation;
    Alcotest.test_case "unused-suppression" `Quick test_unused_suppression;
    Alcotest.test_case "json-roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "baseline-compare" `Quick test_baseline_compare;
    Alcotest.test_case "exit-codes" `Quick test_exit_codes;
    Alcotest.test_case "baseline-workflow" `Quick test_baseline_workflow;
  ]
