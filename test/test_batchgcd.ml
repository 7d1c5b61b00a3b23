(* Batch GCD tests: product/remainder tree invariants, equivalence of
   naive / single-tree / k-subset implementations, planted-factor
   recovery, domain-pool behaviour. *)

module N = Bignum.Nat
module PT = Batchgcd.Product_tree
module RT = Batchgcd.Remainder_tree
module BG = Batchgcd.Batch_gcd
module Pool = Parallel.Pool

let nat = Alcotest.testable N.pp N.equal

let mk_gen seed =
  let st = Random.State.make [| seed |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* A corpus with planted structure: [n_clean] moduli with unique
   primes, plus [shared] moduli all sharing one prime. *)
let corpus ?(bits = 96) ~seed ~n_clean ~n_shared () =
  let gen = mk_gen seed in
  let prime () = Bignum.Prime.generate ~gen ~bits:(bits / 2) in
  let clean = Array.init n_clean (fun _ -> N.mul (prime ()) (prime ())) in
  let p_shared = prime () in
  let shared = Array.init n_shared (fun _ -> N.mul p_shared (prime ())) in
  (Array.append clean shared, p_shared)

(* ---------------- Product tree ---------------- *)

let test_product_tree_root () =
  let inputs = Array.map N.of_int [| 3; 5; 7; 11; 13 |] in
  let t = PT.build inputs in
  Alcotest.check nat "root = product" (N.of_int (3 * 5 * 7 * 11 * 13))
    (PT.root t);
  Alcotest.(check int) "depth for 5 leaves" 4 (PT.depth t);
  Alcotest.(check bool) "leaves preserved" true
    (Array.for_all2 N.equal inputs (PT.leaves t))

let test_product_tree_level_invariant () =
  (* Every level's product equals the root. *)
  let gen = mk_gen 3 in
  let inputs = Array.init 13 (fun _ -> N.add (N.random_bits gen 64) N.one) in
  let t = PT.build inputs in
  for k = 0 to PT.depth t - 1 do
    let prod = Array.fold_left N.mul N.one (PT.level t k) in
    Alcotest.check nat (Printf.sprintf "level %d" k) (PT.root t) prod
  done

let test_product_tree_singleton () =
  let t = PT.build [| N.of_int 42 |] in
  Alcotest.(check int) "depth 1" 1 (PT.depth t);
  Alcotest.check nat "root is input" (N.of_int 42) (PT.root t)

let test_product_tree_rejects () =
  Alcotest.check_raises "empty" (Invalid_argument "Product_tree.build: empty")
    (fun () -> ignore (PT.build [||]));
  Alcotest.check_raises "zero" (Invalid_argument "Product_tree.build: zero input")
    (fun () -> ignore (PT.build [| N.one; N.zero |]))

(* ---------------- Remainder tree ---------------- *)

let test_remainder_tree_matches_direct () =
  let gen = mk_gen 4 in
  let inputs = Array.init 11 (fun _ -> N.add (N.random_bits gen 80) N.two) in
  let t = PT.build inputs in
  let v = N.random_bits gen 900 in
  let rs = RT.remainders t v in
  let rs2 = RT.remainders_mod_square t v in
  Array.iteri
    (fun i m ->
      Alcotest.check nat (Printf.sprintf "plain %d" i) (N.rem v m) rs.(i);
      Alcotest.check nat
        (Printf.sprintf "squared %d" i)
        (N.rem v (N.sqr m))
        rs2.(i))
    inputs

(* Both descents against per-leaf oracles, [N.rem v (N.sqr m)] and
   [N.rem v m], over random trees: a single leaf and odd widths, a [v]
   at or above root^2 (so the root skip is not taken) next to the
   tree's own root product (so it is), and leaf widths straddling the
   Barrett cutoff, at the default cutoff and with it lowered so the
   node tables hold real reciprocals. *)
let with_barrett b f =
  let b0 = !N.barrett_threshold and r0 = !N.recip_threshold in
  N.barrett_threshold := b;
  N.recip_threshold := 2;
  Fun.protect
    ~finally:(fun () ->
      N.barrett_threshold := b0;
      N.recip_threshold := r0)
    f

let check_descents name t v =
  let leaves = PT.leaves t in
  let sq = RT.remainders_mod_square t v and plain = RT.remainders t v in
  Array.iteri
    (fun i m ->
      Alcotest.check nat
        (Printf.sprintf "%s: mod-square leaf %d" name i)
        (N.rem v (N.sqr m)) sq.(i);
      Alcotest.check nat
        (Printf.sprintf "%s: plain leaf %d" name i)
        (N.rem v m) plain.(i))
    leaves

let test_descent_oracle () =
  let st = Random.State.make [| 12 |] in
  let gen = mk_gen 12 in
  List.iter
    (fun barrett ->
      with_barrett barrett (fun () ->
          List.iter
            (fun width ->
              (* 1..9 limbs: both sides of the lowered cutoff of 4 *)
              let inputs =
                Array.init width (fun _ ->
                    N.add
                      (N.random_bits gen (64 + Random.State.int st 450))
                      N.two)
              in
              let t = PT.build inputs in
              let root = PT.root t in
              let big = N.random_bits gen ((2 * N.num_bits root) + 64) in
              let name what =
                Printf.sprintf "barrett>=%d width %d %s" barrett width what
              in
              check_descents (name "root product") t root;
              (* at, just above and far above root^2 *)
              check_descents (name "v = root^2") t (N.sqr root);
              check_descents (name "v just above root^2") t
                (N.add (N.sqr root) (N.random_bits gen (N.num_bits root)));
              check_descents (name "v >> root^2") t (N.add big (N.sqr root));
              check_descents (name "random v") t
                (N.random_bits gen (1 + Random.State.int st 3000)))
            [ 1; 2; 3; 5; 7; 13; 40 ]))
    [ 4; 1000; !N.barrett_threshold ]

(* Node tables are a cache: a descent over a cold tree, over one whose
   tables a previous descent filled, and over one precomputed eagerly
   (twice, plus the documented no-op [~squares:true]) all equal the
   per-leaf oracles. *)
let test_node_tables_cold_warm () =
  let gen = mk_gen 16 in
  with_barrett 2 (fun () ->
      List.iter
        (fun width ->
          let inputs =
            Array.init width (fun _ -> N.add (N.random_bits gen 200) N.two)
          in
          let v = N.random_bits gen 4000 in
          let cold = PT.build inputs in
          check_descents (Printf.sprintf "cold %d" width) cold v;
          check_descents (Printf.sprintf "warm after descent %d" width) cold v;
          let eager = PT.build inputs in
          PT.precompute ~squares:true eager;
          check_descents (Printf.sprintf "squares no-op %d" width) eager v;
          PT.precompute ~squares:false eager;
          PT.precompute ~squares:false eager;
          check_descents (Printf.sprintf "eager %d" width) eager v)
        [ 1; 6; 17 ])

(* The level_parallel width gate must look at the widest node: a level
   led by a narrow odd-one-out still classifies as parallel, and the
   parallel and sequential builds agree. *)
let test_mixed_width_level () =
  Alcotest.(check int) "max_width" 7
    (PT.max_width [| N.one; N.shift_left N.one 200 |]);
  Alcotest.(check int) "max_width empty-ish" 0 (PT.max_width [| N.one; N.one |] - 1);
  Alcotest.(check bool) "parallel when widest is wide" true
    (PT.level_parallel ~nodes:8 ~width:(PT.max_width [| N.one; N.shift_left N.one 200 |]));
  let gen = mk_gen 14 in
  let inputs =
    Array.init 24 (fun i ->
        (* first input tiny, the rest wide *)
        if i = 0 then N.of_int 3
        else N.add (N.random_bits gen 300) N.two)
  in
  let tp = PT.build ~pool:(Pool.get ~domains:4 ()) inputs in
  let ts = PT.build ~pool:(Pool.get ~domains:1 ()) inputs in
  Alcotest.check nat "par root = seq root" (PT.root ts) (PT.root tp);
  let v = N.random_bits gen 4000 in
  let rp = RT.remainders_mod_square ~pool:(Pool.get ~domains:4 ()) tp v in
  let rs = RT.remainders_mod_square ~pool:(Pool.get ~domains:1 ()) ts v in
  Array.iteri
    (fun i r -> Alcotest.check nat (Printf.sprintf "descent %d" i) r rp.(i))
    rs

(* ---------------- Batch GCD ---------------- *)

let test_planted_factor_recovered () =
  let moduli, p_shared = corpus ~seed:5 ~n_clean:10 ~n_shared:3 () in
  let findings = BG.factor_batch moduli in
  Alcotest.(check int) "three moduli flagged" 3 (List.length findings);
  List.iter
    (fun f ->
      Alcotest.(check bool) "flagged index in shared range" true
        (f.BG.index >= 10);
      Alcotest.check nat "divisor is the planted prime" p_shared f.BG.divisor)
    findings

let test_clean_corpus_no_findings () =
  let moduli, _ = corpus ~seed:6 ~n_clean:12 ~n_shared:0 () in
  Alcotest.(check int) "no findings" 0 (List.length (BG.factor_batch moduli));
  Alcotest.(check int) "naive agrees" 0 (List.length (BG.naive moduli))

let test_all_implementations_agree () =
  let moduli, _ = corpus ~seed:7 ~n_clean:9 ~n_shared:4 () in
  let batch = BG.factor_batch moduli in
  Alcotest.(check bool) "naive = batch" true
    (BG.findings_equal (BG.naive moduli) batch);
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "subsets k=%d = batch" k)
        true
        (BG.findings_equal (BG.factor_subsets ~k moduli) batch))
    [ 1; 2; 3; 5; 13; 100 ]

let test_duplicate_moduli () =
  let gen = mk_gen 8 in
  let p = Bignum.Prime.generate ~gen ~bits:48 in
  let q = Bignum.Prime.generate ~gen ~bits:48 in
  let r = Bignum.Prime.generate ~gen ~bits:48 in
  let m = N.mul p q in
  let other = N.mul r (Bignum.Prime.generate ~gen ~bits:48) in
  let findings = BG.factor_batch [| m; m; other |] in
  Alcotest.(check int) "both copies flagged" 2 (List.length findings);
  List.iter
    (fun f ->
      Alcotest.check nat "divisor is whole modulus" m f.BG.divisor)
    findings;
  Alcotest.(check int) "dedup removes copy" 2
    (Array.length (BG.dedup [| m; m; other |]))

let test_ibm_clique_fully_shared () =
  (* Every prime of an IBM modulus is shared with other pool moduli,
     so batch GCD reports the full modulus as divisor. *)
  let moduli = Array.of_list (Rsa.Ibm.all_moduli ~bits:96) in
  let findings = BG.factor_batch moduli in
  Alcotest.(check int) "all 36 flagged" 36 (List.length findings);
  List.iter
    (fun f -> Alcotest.check nat "fully factored" f.BG.modulus f.BG.divisor)
    findings

let test_pairwise_hits () =
  let moduli, p_shared = corpus ~seed:9 ~n_clean:3 ~n_shared:3 () in
  let hits = BG.naive_pairwise_hits moduli in
  Alcotest.(check int) "3 shared moduli = 3 pairs" 3 (List.length hits);
  List.iter
    (fun (i, j, g) ->
      Alcotest.(check bool) "ordered" true (i < j);
      Alcotest.check nat "gcd is planted prime" p_shared g)
    hits

let test_two_disjoint_groups () =
  (* Two independent shared primes must not cross-contaminate. *)
  let gen = mk_gen 10 in
  let prime () = Bignum.Prime.generate ~gen ~bits:48 in
  let pa = prime () and pb = prime () in
  let group a = Array.init 2 (fun _ -> N.mul a (prime ())) in
  let moduli = Array.append (group pa) (group pb) in
  let findings = BG.factor_batch moduli in
  Alcotest.(check int) "all four flagged" 4 (List.length findings);
  List.iter
    (fun f ->
      let expected = if f.BG.index < 2 then pa else pb in
      Alcotest.check nat "right prime per group" expected f.BG.divisor)
    findings

let test_empty_and_single () =
  Alcotest.(check int) "empty" 0 (List.length (BG.factor_batch [||]));
  Alcotest.(check int) "single" 0
    (List.length (BG.factor_batch [| N.of_int 35 |]));
  Alcotest.(check int) "subsets empty" 0
    (List.length (BG.factor_subsets ~k:4 [||]))

(* ---------------- Domain pool ---------------- *)

let test_pool_sizes_and_reuse () =
  Alcotest.(check bool) "default_domains >= 1" true (Pool.default_domains () >= 1);
  let p = Pool.get ~domains:4 () in
  Alcotest.(check int) "requested size" 4 (Pool.size p);
  Alcotest.(check int) "clamped to 1" 1 (Pool.size (Pool.get ~domains:0 ()));
  (* lint: allow phys-equal — the pool (and its spawned domains) must
     literally be the same instance across calls *)
  Alcotest.(check bool) "memoized by size" true (p == Pool.get ~domains:4 ())

let test_parallel_map_order () =
  let jobs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) jobs in
  Alcotest.(check (array int)) "order preserved (parallel)" expected
    (Pool.map ~domains:4 (fun i -> i * i) jobs);
  Alcotest.(check (array int)) "order preserved (domains=1)" expected
    (Pool.map ~domains:1 (fun i -> i * i) jobs);
  Alcotest.(check (array int)) "init matches" expected
    (Pool.init ~domains:4 100 (fun i -> i * i));
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.map ~domains:4 (fun i -> i * i) [||])

let test_parallel_for_chunked () =
  List.iter
    (fun (domains, chunk) ->
      let hits = Array.make 200 0 in
      Pool.parallel_for ~domains ?chunk 0 200 (fun i ->
          hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        (Printf.sprintf "every index exactly once (domains=%d)" domains)
        true
        (Array.for_all (fun c -> c = 1) hits))
    [ (1, None); (4, None); (4, Some 1); (4, Some 7); (4, Some 1000) ]

(* Deterministic propagation: every job runs, and the failure with the
   smallest index wins no matter which domain hit it first. *)
let test_parallel_map_exception () =
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "first failure wins (domains=%d)" domains)
        true
        (try
           ignore
             (Pool.map ~domains
                (fun i ->
                  (* lint: allow failwith-outside-exn — the worker must raise *)
                  if i = 3 || i = 7 then failwith (Printf.sprintf "boom-%d" i)
                  else i)
                (Array.init 10 (fun i -> i)));
           false
         with Pool.Worker_failure (Failure msg) -> msg = "boom-3"))
    [ 1; 3 ]

let test_nested_map_no_deadlock () =
  let pool = Pool.get ~domains:4 () in
  let out =
    Pool.map ~pool
      (fun i ->
        let inner = Pool.map ~pool (fun j -> i * j) (Array.init 8 Fun.id) in
        Array.fold_left ( + ) 0 inner)
      (Array.init 16 Fun.id)
  in
  Alcotest.(check (array int)) "nested results correct"
    (Array.init 16 (fun i -> 28 * i))
    out

let test_parallel_batch_match_sequential () =
  List.iter
    (fun seed ->
      let moduli, _ = corpus ~seed ~n_clean:8 ~n_shared:4 () in
      let seq = BG.factor_batch ~domains:1 moduli in
      Alcotest.(check bool)
        (Printf.sprintf "factor_batch domains=1 vs 4 (seed %d)" seed)
        true
        (BG.findings_equal seq (BG.factor_batch ~domains:4 moduli));
      Alcotest.(check bool)
        (Printf.sprintf "factor_subsets domains=1 vs 4 (seed %d)" seed)
        true
        (BG.findings_equal
           (BG.factor_subsets ~domains:1 ~k:4 moduli)
           (BG.factor_subsets ~domains:4 ~k:4 moduli));
      Alcotest.(check bool)
        (Printf.sprintf "parallel subsets vs sequential batch (seed %d)" seed)
        true
        (BG.findings_equal seq (BG.factor_subsets ~domains:4 ~k:3 moduli)))
    [ 11; 23; 37 ]

(* ---------------- Incremental batch GCD ---------------- *)

module Inc = Batchgcd.Incremental

(* factor_delta over every split point of a corpus (including splits
   inside and before the planted shared block) must reproduce the full
   run over the union, exactly. *)
let test_factor_delta_splits () =
  List.iter
    (fun seed ->
      let moduli, _ = corpus ~seed ~n_clean:8 ~n_shared:4 () in
      let full = BG.factor_subsets ~k:3 moduli in
      List.iter
        (fun split ->
          let old_part = Array.sub moduli 0 split in
          let fresh = Array.sub moduli split (Array.length moduli - split) in
          let old_tree = PT.build old_part in
          let old_findings = BG.factor_batch old_part in
          let delta =
            Inc.factor_delta ~old_tree ~old_findings fresh
          in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d split %d" seed split)
            true
            (BG.findings_equal full delta))
        [ 1; 4; 7; 9; 11 ])
    [ 11; 23; 37 ]

let test_incremental_create_extend () =
  let moduli, _ = corpus ~seed:41 ~n_clean:10 ~n_shared:5 () in
  let full = BG.factor_batch moduli in
  (* three batches: subsets-seeded create, then two extends *)
  let t = Inc.create ~k:3 (Array.sub moduli 0 6) in
  let t = Inc.extend t (Array.sub moduli 6 5) in
  Alcotest.(check int) "segments accumulate" 4 (Inc.segment_count t);
  let t = Inc.extend t (Array.sub moduli 11 4) in
  Alcotest.(check int) "corpus size" 15 (Inc.corpus_size t);
  Alcotest.(check bool) "corpus preserved in order" true
    (Array.for_all2 N.equal moduli (Inc.corpus t));
  Alcotest.(check bool) "incremental = full" true
    (BG.findings_equal full (Inc.findings t));
  Alcotest.(check bool) "empty delta is identity" true
    (BG.findings_equal full (Inc.findings (Inc.extend t [||])));
  Alcotest.(check bool) "create from empty then extend" true
    (BG.findings_equal full
       (Inc.findings (Inc.extend (Inc.create [||]) moduli)))

(* New findings that live entirely inside the delta (a shared prime
   introduced by the fresh batch, unseen in the old corpus) must be
   caught by the new-vs-new mod-square pass. *)
let test_incremental_delta_only_sharing () =
  let gen = mk_gen 43 in
  let prime () = Bignum.Prime.generate ~gen ~bits:48 in
  let old_part = Array.init 6 (fun _ -> N.mul (prime ()) (prime ())) in
  let p = prime () in
  let fresh = [| N.mul p (prime ()); N.mul p (prime ()) |] in
  let t = Inc.extend (Inc.create old_part) fresh in
  Alcotest.(check int) "both delta moduli flagged" 2
    (List.length (Inc.findings t));
  List.iter
    (fun f ->
      Alcotest.(check bool) "indexes in delta range" true (f.BG.index >= 6);
      Alcotest.check nat "divisor is the delta prime" p f.BG.divisor)
    (Inc.findings t)

let with_temp_checkpoint f =
  let path = Filename.temp_file "weakkeys-inc" ".ckpt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_incremental_save_load () =
  let moduli, _ = corpus ~seed:47 ~n_clean:9 ~n_shared:3 () in
  let t = Inc.extend (Inc.create ~k:2 (Array.sub moduli 0 8))
      (Array.sub moduli 8 4)
  in
  with_temp_checkpoint (fun path ->
      let oc = open_out_bin path in
      Inc.save oc t;
      close_out oc;
      let ic = open_in_bin path in
      let t' = Inc.load ic in
      close_in ic;
      Alcotest.(check int) "size round-trips" (Inc.corpus_size t)
        (Inc.corpus_size t');
      Alcotest.(check int) "segments round-trip" (Inc.segment_count t)
        (Inc.segment_count t');
      Alcotest.(check bool) "corpus round-trips" true
        (Array.for_all2 N.equal (Inc.corpus t) (Inc.corpus t'));
      Alcotest.(check bool) "findings round-trip" true
        (BG.findings_equal (Inc.findings t) (Inc.findings t'));
      (* resuming from the restored state must equal resuming from the
         live one *)
      let delta, _ = corpus ~seed:53 ~n_clean:3 ~n_shared:2 () in
      Alcotest.(check bool) "extend after load = extend live" true
        (BG.findings_equal
           (Inc.findings (Inc.extend t delta))
           (Inc.findings (Inc.extend t' delta))))

let test_incremental_load_rejects_garbage () =
  with_temp_checkpoint (fun path ->
      let oc = open_out_bin path in
      output_string oc "\x00\x00\x00\x04junk";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
          Alcotest.(check bool) "Corrupt raised" true
            (try
               ignore (Inc.load ic);
               false
             with Corpus.Io.Corrupt _ -> true)))

(* ---------------- Sharded batch GCD ---------------- *)

module Sh = Batchgcd.Sharded

let with_temp_dir f =
  let dir = Filename.temp_file "weakkeys-shard" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun name -> Sys.remove (Filename.concat dir name))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* The two-tier sharded sweep must reproduce the single-tree findings
   exactly — same indexes, same divisors — for corpora that span
   several shards, across seeds and shard geometries. *)
let test_sharded_matches_flat () =
  List.iter
    (fun seed ->
      let moduli, _ = corpus ~seed ~n_clean:10 ~n_shared:5 () in
      let full = BG.factor_batch moduli in
      List.iter
        (fun stride ->
          let t = Sh.create ~stride moduli in
          Alcotest.(check int)
            (Printf.sprintf "shard count (seed %d stride %d)" seed stride)
            ((Array.length moduli + stride - 1) / stride)
            (Sh.shard_count t);
          Alcotest.(check bool)
            (Printf.sprintf "sharded = flat (seed %d stride %d)" seed stride)
            true
            (BG.findings_equal full (Sh.findings t));
          Alcotest.(check bool) "corpus preserved in id order" true
            (Array.for_all2 N.equal moduli (Sh.corpus t));
          Array.iteri
            (fun i m ->
              Alcotest.(check (option int)) "find returns global id" (Some i)
                (Sh.find t m))
            moduli)
        [ 4; 8 ])
    [ 11; 23; 37 ]

let test_sharded_rejects () =
  Alcotest.check_raises "stride must be a power of two"
    (Invalid_argument "Batchgcd.Sharded.create: stride must be a power of two")
    (fun () -> ignore (Sh.create ~stride:6 [| N.of_int 15 |]))

(* Extend across a shard boundary: the delta first tops up the tail
   shard, then opens fresh shards. Findings must equal a from-scratch
   sweep over the union, in global index order. *)
let test_sharded_extend_boundary () =
  let moduli, _ = corpus ~seed:59 ~n_clean:9 ~n_shared:4 () in
  let t = Sh.create ~stride:4 (Array.sub moduli 0 6) in
  Alcotest.(check int) "two shards before extend" 2 (Sh.shard_count t);
  (* 6 + 7 = 13 crosses two boundaries: top up to 8, fill 8..12 *)
  let t = Sh.extend t (Array.sub moduli 6 7) in
  Alcotest.(check int) "four shards after extend" 4 (Sh.shard_count t);
  Alcotest.(check int) "corpus size" 13 (Sh.corpus_size t);
  Alcotest.(check bool) "corpus preserved in order" true
    (Array.for_all2 N.equal moduli (Sh.corpus t));
  Alcotest.(check bool) "extend = from-scratch over union" true
    (BG.findings_equal (BG.factor_batch moduli) (Sh.findings t));
  Alcotest.(check bool) "empty delta is identity" true
    (BG.findings_equal (Sh.findings t) (Sh.findings (Sh.extend t [||])))

(* Directory checkpoint: save_dir + load_dir must be O(shard count) —
   the arenas are mapped and no forest is resident — yet findings are
   immediately queryable, and extending the restored state must match
   extending the live one. *)
let test_sharded_save_load_dir () =
  let moduli, extra_seed = (fst (corpus ~seed:61 ~n_clean:10 ~n_shared:4 ()), 67) in
  let live = Sh.create ~stride:4 moduli in
  with_temp_dir (fun dir ->
      Sh.save_dir live dir;
      let restored = Sh.load_dir dir in
      Alcotest.(check int) "no forest resident after load_dir" 0
        (Sh.loaded_shards restored);
      Alcotest.(check int) "size round-trips" (Sh.corpus_size live)
        (Sh.corpus_size restored);
      Alcotest.(check int) "stride round-trips" (Sh.stride live)
        (Sh.stride restored);
      Alcotest.(check bool) "findings queryable without forests" true
        (BG.findings_equal (Sh.findings live) (Sh.findings restored));
      Array.iteri
        (fun i m ->
          Alcotest.(check (option int)) "mapped find" (Some i)
            (Sh.find restored m))
        moduli;
      (* extending forces the lazy forest loads; results must match the
         never-checkpointed state exactly *)
      let delta, _ = corpus ~seed:extra_seed ~n_clean:3 ~n_shared:2 () in
      let live' = Sh.extend live delta in
      let restored' = Sh.extend restored delta in
      Alcotest.(check bool) "extend after load_dir = extend live" true
        (BG.findings_equal (Sh.findings live') (Sh.findings restored'));
      Alcotest.(check int) "segments agree" (Sh.segment_count live')
        (Sh.segment_count restored'))

(* ---------------- Io header hardening ---------------- *)

(* A length prefix larger than the bytes actually remaining must be
   rejected with Corrupt *before* any allocation of that size — a
   fuzzed 4-byte header must never turn into a multi-gigabyte
   really_input buffer or an Out_of_memory. *)
let test_io_rejects_oversized_length () =
  let check_header ?(payload = "") name header =
    with_temp_checkpoint (fun path ->
        let oc = open_out_bin path in
        output_string oc header;
        output_string oc payload;
        close_out oc;
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
            Alcotest.(check bool) name true
              (try
                 ignore (Corpus.Io.read_string ic);
                 false
               with Corpus.Io.Corrupt _ -> true)))
  in
  (* near-max positive 32-bit length, 4 bytes of payload *)
  check_header ~payload:"junk" "huge prefix" "\x7f\xff\xff\x00";
  (* length one past the remaining bytes *)
  check_header ~payload:"abc" "off-by-one prefix" "\x00\x00\x00\x04";
  (* sign bit set reads back negative *)
  check_header "negative prefix" "\xff\xff\xff\xfe";
  (* fuzz: random headers always claiming more than remains *)
  let st = Random.State.make [| 71 |] in
  for i = 1 to 50 do
    let remaining = Random.State.int st 8 in
    let len = remaining + 1 + Random.State.int st 0x3FFFFFFF in
    let header =
      String.init 4 (fun b -> Char.chr ((len lsr (8 * (3 - b))) land 0xff))
    in
    check_header
      ~payload:(String.make remaining 'x')
      (Printf.sprintf "fuzzed prefix %d" i)
      header
  done

(* ---------------- Checkpoint fuzz ---------------- *)

(* Field layout of a checkpoint, recovered by walking its bytes with
   the writers' format: the offset of every record (where a
   truncation may cut) and of every count or header int (which the
   fuzz overwrites). Nat payloads and finding indices are data, not
   structure, and stay intact. *)
type layout = {
  bytes : string;
  mutable pos : int;
  mutable bounds : int list;
  mutable counts : int list;
}

let be32 s o =
  (Char.code s.[o] lsl 24)
  lor (Char.code s.[o + 1] lsl 16)
  lor (Char.code s.[o + 2] lsl 8)
  lor Char.code s.[o + 3]

let int_field ?(count = true) l =
  l.bounds <- l.pos :: l.bounds;
  if count then l.counts <- l.pos :: l.counts;
  let v = be32 l.bytes l.pos in
  l.pos <- l.pos + 4;
  v

let str_field l =
  l.bounds <- l.pos :: l.bounds;
  l.pos <- l.pos + 4 + be32 l.bytes l.pos

let walk_findings l =
  for _ = 1 to int_field l do
    ignore (int_field ~count:false l);
    str_field l;
    str_field l
  done

let walk_incremental l =
  str_field l;
  ignore (int_field l);
  for _ = 1 to int_field l do
    ignore (int_field l);
    for _ = 1 to int_field l do
      for _ = 1 to int_field l do
        str_field l
      done
    done
  done;
  walk_findings l

let walk_sharded l =
  str_field l;
  ignore (int_field l);
  ignore (int_field l);
  walk_findings l;
  for _ = 1 to int_field l do
    walk_incremental l
  done

let layout walk bytes =
  let l = { bytes; pos = 0; bounds = []; counts = [] } in
  walk l;
  Alcotest.(check int) "walk covers the file" (String.length bytes) l.pos;
  l

let saved save v =
  with_temp_checkpoint (fun path ->
      let oc = open_out_bin path in
      save oc v;
      close_out oc;
      In_channel.with_open_bin path In_channel.input_all)

(* Load [bytes] as a whole file: it must raise Corrupt or End_of_file,
   or load exactly the checkpoint it claims to be ([expect_end] plus
   a byte-equal re-save). *)
let check_load ~load ~save ~original name bytes =
  with_temp_checkpoint (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      match
        In_channel.with_open_bin path (fun ic ->
            let v = load ic in
            Corpus.Io.expect_end ic;
            v)
      with
      | v ->
        if not (String.equal (saved save v) original) then
          Alcotest.failf "%s: loaded different contents" name
      | exception (Corpus.Io.Corrupt _ | End_of_file) -> ())

let put32 b o v =
  for k = 0 to 3 do
    Bytes.set b (o + k) (Char.chr ((v lsr (8 * (3 - k))) land 0xff))
  done

let fuzz_checkpoint ~seed ~walk ~load ~save v =
  let original = saved save v in
  let l = layout walk original in
  check_load ~load ~save ~original "untouched" original;
  List.iter
    (fun cut ->
      check_load ~load ~save ~original
        (Printf.sprintf "truncated at %d" cut)
        (String.sub original 0 cut))
    l.bounds;
  let st = Random.State.make [| seed |] in
  List.iter
    (fun o ->
      let old = be32 original o in
      List.iter
        (fun v ->
          let b = Bytes.of_string original in
          put32 b o v;
          check_load ~load ~save ~original
            (Printf.sprintf "int at %d: %d -> %d" o old v)
            (Bytes.to_string b))
        [ old + 1; (if old > 0 then old - 1 else 2); 0; 0x7fffffff;
          0x80000000 lor Random.State.bits st;
          Random.State.int st (2 * (old + 2));
          Random.State.bits st ])
    l.counts

let test_checkpoint_fuzz () =
  let moduli, _ = corpus ~seed:83 ~n_clean:11 ~n_shared:4 () in
  let inc =
    Inc.extend (Inc.create ~k:2 (Array.sub moduli 0 9)) (Array.sub moduli 9 6)
  in
  Alcotest.(check bool) "incremental checkpoint has findings" true
    (Inc.findings inc <> []);
  fuzz_checkpoint ~seed:89 ~walk:walk_incremental ~load:Inc.load ~save:Inc.save
    inc;
  let sh = Batchgcd.Sharded.create ~stride:4 moduli in
  fuzz_checkpoint ~seed:97 ~walk:walk_sharded ~load:Batchgcd.Sharded.load
    ~save:Batchgcd.Sharded.save sh

(* ---------------- 1024-bit planted corpus ---------------- *)

(* 24 moduli of 1024 bits, stride 8 (three shards): one prime shared
   across all three shards, a pair sharing a prime inside one shard,
   and a triangle r*s, r*t, s*t whose every modulus is fully factored
   by the other two. The sharded and flat sweeps must equal the naive
   oracle at the operand size the benchmark's sweep runs. *)
let test_planted_1024 () =
  let gen = mk_gen 101 in
  let prime () = Bignum.Prime.generate ~gen ~bits:512 in
  let p = prime () and q = prime () in
  let r = prime () and s = prime () and t = prime () in
  let moduli =
    Array.init 24 (fun i ->
        match i with
        | 0 | 9 | 17 -> N.mul p (prime ())
        | 5 | 6 -> N.mul q (prime ())
        | 12 -> N.mul r s
        | 15 -> N.mul r t
        | 23 -> N.mul s t
        | _ -> N.mul (prime ()) (prime ()))
  in
  let oracle = BG.naive moduli in
  Alcotest.(check (list int)) "oracle flags the planted moduli"
    [ 0; 5; 6; 9; 12; 15; 17; 23 ]
    (List.map (fun f -> f.BG.index) oracle);
  Alcotest.(check bool) "factor_batch = naive" true
    (BG.findings_equal oracle (BG.factor_batch moduli));
  Alcotest.(check bool) "Sharded.create = naive" true
    (BG.findings_equal oracle
       (Batchgcd.Sharded.findings (Batchgcd.Sharded.create ~stride:8 moduli)))

(* ---------------- Backend registry ---------------- *)

module Bk = Batchgcd.Backend
module A2A = Batchgcd.All_to_all

let test_backend_registry () =
  Alcotest.(check (list string))
    "builtin names"
    [ "tree"; "ksubset"; "all_to_all" ]
    (Bk.names ());
  Alcotest.(check bool) "find known" true (Bk.find "all_to_all" <> None);
  Alcotest.(check bool) "find unknown" true (Bk.find "nope" = None);
  Alcotest.(check bool) "get unknown raises" true
    (try
       ignore (Bk.get "nope");
       false
     with Bk.Unknown_backend "nope" -> true);
  Alcotest.(check bool) "tree is incremental and sharded" true
    (Bk.tree.Bk.caps.Bk.incremental && Bk.tree.Bk.caps.Bk.sharded);
  Alcotest.(check bool) "all_to_all is incremental and sharded" true
    (Bk.all_to_all.Bk.caps.Bk.incremental && Bk.all_to_all.Bk.caps.Bk.sharded);
  Alcotest.(check bool) "ksubset is one-shot only" false
    (Bk.ksubset.Bk.caps.Bk.incremental || Bk.ksubset.Bk.caps.Bk.sharded)

let test_backend_select_policy () =
  let threshold = Bk.all_to_all_threshold () in
  Alcotest.(check string) "small work goes all-to-all" "all_to_all"
    (Bk.select ~purpose:`Delta ~n:threshold ()).Bk.name;
  Alcotest.(check string) "bulk work goes tree" "tree"
    (Bk.select ~purpose:`Shard ~n:(threshold + 1) ()).Bk.name;
  Alcotest.(check string) "explicit override beats the heuristic" "tree"
    (Bk.select ~override:"tree" ~purpose:`Delta ~n:1 ()).Bk.name;
  Alcotest.(check bool) "incapable override rejected" true
    (try
       ignore (Bk.select ~override:"ksubset" ~purpose:`Delta ~n:1 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown override raises Unknown_backend" true
    (try
       ignore (Bk.select ~override:"nope" ~purpose:`Shard ~n:1 ());
       false
     with Bk.Unknown_backend "nope" -> true)

(* Every registered backend must land on identical findings — same
   indexes, same divisors — across seeds and corpus sizes bracketing
   the all-to-all selection threshold (default 48). *)
let test_backends_findings_equal () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n_clean, n_shared) ->
          let moduli, _ = corpus ~bits:64 ~seed ~n_clean ~n_shared () in
          let reference = BG.factor_batch moduli in
          List.iter
            (fun b ->
              Alcotest.(check bool)
                (Printf.sprintf "%s = reference (seed %d, %d moduli)" b.Bk.name
                   seed (Array.length moduli))
                true
                (BG.findings_equal reference (Bk.factor b moduli)))
            Bk.builtin)
        [ (16, 8); (32, 16); (64, 32) ])
    [ 11; 23; 37 ]

(* The pruned node-pair recursion must surface exactly the coprime-
   filtered pair set of the O(n^2) sweep, with bit-identical gcds. *)
let test_all_to_all_pairwise_hits () =
  let moduli, _ = corpus ~seed:29 ~n_clean:6 ~n_shared:4 () in
  let sort = List.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d)) in
  let naive = sort (BG.naive_pairwise_hits moduli) in
  let hits = sort (A2A.pairwise_hits (PT.build moduli)) in
  Alcotest.(check int) "same pair count" (List.length naive) (List.length hits);
  List.iter2
    (fun (i, j, g) (i', j', g') ->
      Alcotest.(check (pair int int)) "same pair" (i, j) (i', j');
      Alcotest.check nat "same gcd" g g')
    naive hits;
  Alcotest.(check (list (triple int int nat))) "empty cross on coprime trees"
    []
    (let clean, _ = corpus ~seed:31 ~n_clean:4 ~n_shared:0 () in
     A2A.cross_hits (PT.build (Array.sub clean 0 2)) (PT.build (Array.sub clean 2 2)))

(* Incremental deltas through either capable strategy agree with a
   from-scratch recompute; the one-shot ksubset strategy is refused. *)
let test_incremental_backend_extend () =
  let moduli, _ = corpus ~seed:43 ~n_clean:12 ~n_shared:6 () in
  let base = Array.sub moduli 0 10 in
  let delta = Array.sub moduli 10 (Array.length moduli - 10) in
  let full = BG.factor_batch moduli in
  List.iter
    (fun backend ->
      let t = Inc.create ~backend base in
      let t = Inc.extend ~backend t delta in
      Alcotest.(check bool)
        (Printf.sprintf "create+extend via %s = recompute" backend)
        true
        (BG.findings_equal full (Inc.findings t)))
    [ "tree"; "all_to_all" ];
  let t = Inc.create [||] in
  Alcotest.(check bool) "ksubset delta refused" true
    (try
       ignore (Inc.extend ~backend:"ksubset" t moduli);
       false
     with Invalid_argument _ -> true)

(* The per-shard selection policy: small shards drop to all-to-all,
   explicit and per-shard overrides win, and findings never depend on
   which backend ran. *)
let test_sharded_backend_policy () =
  let moduli, _ = corpus ~seed:47 ~n_clean:10 ~n_shared:5 () in
  let full = BG.factor_batch moduli in
  let t = Sh.create ~stride:4 moduli in
  Alcotest.(check (list (pair string int)))
    "small shards all pick all_to_all"
    [ ("all_to_all", Sh.shard_count t) ]
    (Sh.backend_uses t);
  Alcotest.(check bool) "threshold policy findings = flat" true
    (BG.findings_equal full (Sh.findings t));
  let t_tree = Sh.create ~backend:"tree" ~stride:4 moduli in
  Alcotest.(check (list (pair string int)))
    "sweep-wide override pins every shard"
    [ ("tree", Sh.shard_count t_tree) ]
    (Sh.backend_uses t_tree);
  Alcotest.(check bool) "override findings = flat" true
    (BG.findings_equal full (Sh.findings t_tree));
  let t_mixed =
    Sh.create
      ~shard_backend:(fun s -> if s = 0 then Some "tree" else None)
      ~stride:4 moduli
  in
  Alcotest.(check (list (pair string int)))
    "per-shard override beats the heuristic"
    [ ("all_to_all", Sh.shard_count t_mixed - 1); ("tree", 1) ]
    (Sh.backend_uses t_mixed);
  Alcotest.(check bool) "mixed policy findings = flat" true
    (BG.findings_equal full (Sh.findings t_mixed));
  Alcotest.(check bool) "ksubset refused as shard strategy" true
    (try
       ignore (Sh.create ~backend:"ksubset" ~stride:4 moduli);
       false
     with Invalid_argument _ -> true)

(* ---------------- Properties ---------------- *)

let prop_implementations_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"naive = batch = subsets (random corpora)"
       ~count:10
       QCheck2.Gen.(
         triple (int_range 0 8) (int_range 0 5) (int_range 1 6))
       (fun (n_clean, n_shared, k) ->
         let moduli, _ =
           corpus ~bits:64 ~seed:(n_clean + (17 * n_shared) + (289 * k))
             ~n_clean ~n_shared ()
         in
         let batch = BG.factor_batch moduli in
         BG.findings_equal (BG.naive moduli) batch
         && BG.findings_equal (BG.factor_subsets ~k moduli) batch))

let prop_divisor_divides =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"divisors divide their moduli" ~count:10
       (QCheck2.Gen.int_range 0 1000)
       (fun seed ->
         let moduli, _ = corpus ~bits:64 ~seed ~n_clean:5 ~n_shared:3 () in
         List.for_all
           (fun f -> N.is_zero (N.rem f.BG.modulus f.BG.divisor))
           (BG.factor_batch moduli)))

let tests =
  [
    Alcotest.test_case "product tree root" `Quick test_product_tree_root;
    Alcotest.test_case "product tree levels" `Quick
      test_product_tree_level_invariant;
    Alcotest.test_case "product tree singleton" `Quick test_product_tree_singleton;
    Alcotest.test_case "product tree rejects" `Quick test_product_tree_rejects;
    Alcotest.test_case "remainder tree" `Quick test_remainder_tree_matches_direct;
    Alcotest.test_case "descent = per-leaf rem oracle" `Quick
      test_descent_oracle;
    Alcotest.test_case "mixed-width level" `Quick test_mixed_width_level;
    Alcotest.test_case "node tables cold = warm" `Quick
      test_node_tables_cold_warm;
    Alcotest.test_case "planted factor recovered" `Quick
      test_planted_factor_recovered;
    Alcotest.test_case "clean corpus" `Quick test_clean_corpus_no_findings;
    Alcotest.test_case "implementations agree" `Quick
      test_all_implementations_agree;
    Alcotest.test_case "duplicate moduli" `Quick test_duplicate_moduli;
    Alcotest.test_case "ibm clique" `Quick test_ibm_clique_fully_shared;
    Alcotest.test_case "pairwise hits" `Quick test_pairwise_hits;
    Alcotest.test_case "two disjoint groups" `Quick test_two_disjoint_groups;
    Alcotest.test_case "empty and single" `Quick test_empty_and_single;
    Alcotest.test_case "pool sizes and reuse" `Quick test_pool_sizes_and_reuse;
    Alcotest.test_case "parallel map order" `Quick test_parallel_map_order;
    Alcotest.test_case "parallel_for chunked" `Quick test_parallel_for_chunked;
    Alcotest.test_case "parallel exception" `Quick test_parallel_map_exception;
    Alcotest.test_case "nested map no deadlock" `Quick
      test_nested_map_no_deadlock;
    Alcotest.test_case "parallel = sequential" `Quick
      test_parallel_batch_match_sequential;
    Alcotest.test_case "factor_delta across splits" `Quick
      test_factor_delta_splits;
    Alcotest.test_case "incremental create/extend" `Quick
      test_incremental_create_extend;
    Alcotest.test_case "delta-only sharing" `Quick
      test_incremental_delta_only_sharing;
    Alcotest.test_case "incremental save/load" `Quick test_incremental_save_load;
    Alcotest.test_case "incremental load rejects garbage" `Quick
      test_incremental_load_rejects_garbage;
    Alcotest.test_case "sharded = flat findings" `Quick
      test_sharded_matches_flat;
    Alcotest.test_case "sharded rejects bad stride" `Quick test_sharded_rejects;
    Alcotest.test_case "sharded extend across boundary" `Quick
      test_sharded_extend_boundary;
    Alcotest.test_case "sharded save_dir/load_dir" `Quick
      test_sharded_save_load_dir;
    Alcotest.test_case "io rejects oversized length" `Quick
      test_io_rejects_oversized_length;
    Alcotest.test_case "checkpoint fuzz" `Quick test_checkpoint_fuzz;
    Alcotest.test_case "planted 1024-bit corpus" `Quick test_planted_1024;
    Alcotest.test_case "backend registry" `Quick test_backend_registry;
    Alcotest.test_case "backend select policy" `Quick
      test_backend_select_policy;
    Alcotest.test_case "backends findings equal" `Quick
      test_backends_findings_equal;
    Alcotest.test_case "all-to-all pairwise hits" `Quick
      test_all_to_all_pairwise_hits;
    Alcotest.test_case "incremental backend extend" `Quick
      test_incremental_backend_extend;
    Alcotest.test_case "sharded backend policy" `Quick
      test_sharded_backend_policy;
    prop_implementations_agree;
    prop_divisor_divides;
  ]
