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
   [N.rem v m], over random trees: a single leaf and odd widths, and a
   [v] at or above root^2 (so the root skip is not taken) next to the
   tree's own root product (so it is). *)
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
    (fun width ->
      let inputs =
        Array.init width (fun _ ->
            N.add (N.random_bits gen (64 + Random.State.int st 450)) N.two)
      in
      let t = PT.build inputs in
      let root = PT.root t in
      let big = N.random_bits gen ((2 * N.num_bits root) + 64) in
      let name what = Printf.sprintf "width %d %s" width what in
      check_descents (name "root product") t root;
      (* at, just above and far above root^2 *)
      check_descents (name "v = root^2") t (N.sqr root);
      check_descents (name "v just above root^2") t
        (N.add (N.sqr root) (N.random_bits gen (N.num_bits root)));
      check_descents (name "v >> root^2") t (N.add big (N.sqr root));
      check_descents (name "random v") t
        (N.random_bits gen (1 + Random.State.int st 3000)))
    [ 1; 2; 3; 5; 7; 13; 40 ]

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
    (Pool.map ~pool:(Pool.get ~domains:4 ()) (fun i -> i * i) jobs);
  Alcotest.(check (array int)) "order preserved (domains=1)" expected
    (Pool.map ~pool:(Pool.get ~domains:1 ()) (fun i -> i * i) jobs);
  Alcotest.(check (array int)) "init matches" expected
    (Pool.init ~pool:(Pool.get ~domains:4 ()) 100 (fun i -> i * i));
  Alcotest.(check (array int)) "empty input" [||]
    (Pool.map ~pool:(Pool.get ~domains:4 ()) (fun i -> i * i) [||])

let test_parallel_for_chunked () =
  List.iter
    (fun (domains, chunk) ->
      let hits = Array.make 200 0 in
      Pool.parallel_for ~pool:(Pool.get ~domains ()) ?chunk 0 200 (fun i ->
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
             (Pool.map ~pool:(Pool.get ~domains ())
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
      let seq = BG.factor_batch ~pool:(Pool.get ~domains:1 ()) moduli in
      Alcotest.(check bool)
        (Printf.sprintf "factor_batch domains=1 vs 4 (seed %d)" seed)
        true
        (BG.findings_equal seq (BG.factor_batch ~pool:(Pool.get ~domains:4 ()) moduli));
      Alcotest.(check bool)
        (Printf.sprintf "factor_subsets domains=1 vs 4 (seed %d)" seed)
        true
        (BG.findings_equal
           (BG.factor_subsets ~pool:(Pool.get ~domains:1 ()) ~k:4 moduli)
           (BG.factor_subsets ~pool:(Pool.get ~domains:4 ()) ~k:4 moduli));
      Alcotest.(check bool)
        (Printf.sprintf "parallel subsets vs sequential batch (seed %d)" seed)
        true
        (BG.findings_equal seq (BG.factor_subsets ~pool:(Pool.get ~domains:4 ()) ~k:3 moduli)))
    [ 11; 23; 37 ]

(* ---------------- Incremental batch GCD ---------------- *)

module Inc = Batchgcd.Incremental

(* A cached single tree plus its findings, reassembled by of_segments
   and extended, over every split point of a corpus (including splits
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
          let t = Inc.of_segments ~findings:old_findings [| (0, old_tree) |] in
          let delta = Inc.findings (Inc.extend t fresh) in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d split %d" seed split)
            true
            (BG.findings_equal full delta))
        [ 1; 4; 7; 9; 11 ])
    [ 11; 23; 37 ]

let test_incremental_create_extend () =
  let moduli, _ = corpus ~seed:41 ~n_clean:10 ~n_shared:5 () in
  let full = BG.factor_batch moduli in
  (* three batches: create (one segment per modulus below 32), then
     two extends of one segment each *)
  let t = Inc.create (Array.sub moduli 0 6) in
  Alcotest.(check int) "one segment per leaf" 6 (Inc.segment_count t);
  let t = Inc.extend t (Array.sub moduli 6 5) in
  Alcotest.(check int) "segments accumulate" 7 (Inc.segment_count t);
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
  let t = Inc.extend (Inc.create (Array.sub moduli 0 8)) (Array.sub moduli 8 4) in
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

(* The sharded sweep must reproduce the single-tree findings
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

(* Directory checkpoint: save_dir writes one file, dir/sweep, and
   load_dir restores findings, ids and the forest from it; extending
   the restored state must match extending the live one. *)
let test_sharded_save_load_dir () =
  let moduli, extra_seed = (fst (corpus ~seed:61 ~n_clean:10 ~n_shared:4 ()), 67) in
  let live = Sh.create ~stride:4 moduli in
  with_temp_dir (fun dir ->
      Sh.save_dir live dir;
      Alcotest.(check (array string)) "one file" [| "sweep" |] (Sys.readdir dir);
      let restored = Sh.load_dir dir in
      Alcotest.(check int) "size round-trips" (Sh.corpus_size live)
        (Sh.corpus_size restored);
      Alcotest.(check int) "stride round-trips" (Sh.stride live)
        (Sh.stride restored);
      Alcotest.(check bool) "findings round-trip" true
        (BG.findings_equal (Sh.findings live) (Sh.findings restored));
      Array.iteri
        (fun i m ->
          Alcotest.(check (option int)) "restored find" (Some i)
            (Sh.find restored m))
        moduli;
      let delta, _ = corpus ~seed:extra_seed ~n_clean:3 ~n_shared:2 () in
      let live' = Sh.extend live delta in
      let restored' = Sh.extend restored delta in
      Alcotest.(check bool) "extend after load_dir = extend live" true
        (BG.findings_equal (Sh.findings live') (Sh.findings restored'));
      Alcotest.(check int) "segments agree" (Sh.segment_count live')
        (Sh.segment_count restored');
      (* a second save replaces the first in place *)
      Sh.save_dir live' dir;
      Alcotest.(check (array string)) "still one file" [| "sweep" |]
        (Sys.readdir dir);
      let reloaded = Sh.load_dir dir in
      Alcotest.(check int) "extended size round-trips" (Sh.corpus_size live')
        (Sh.corpus_size reloaded);
      Alcotest.(check bool) "extended findings round-trip" true
        (BG.findings_equal (Sh.findings live') (Sh.findings reloaded)))

(* ---------------- The cut forest ---------------- *)

(* Distinct odd moduli, cheap enough for a 2500-leaf tree. *)
let odd_moduli n = Array.init n (fun i -> N.of_int (1_000_003 + (2 * i)))

let tree_equal a b =
  PT.depth a = PT.depth b
  && List.for_all
       (fun k ->
         let la = PT.level a k and lb = PT.level b k in
         Array.length la = Array.length lb && Array.for_all2 N.equal la lb)
       (List.init (PT.depth a) Fun.id)

(* Every segment is the tree Product_tree.build makes over its own
   leaves, every offset a multiple of the first segment's size, and
   the leaves concatenate back to [moduli]. *)
let check_cut what moduli segments =
  let size =
    if Array.length segments = 0 then 1
    else Array.length (PT.leaves (snd segments.(0)))
  in
  Alcotest.(check bool) (what ^ ": segment size is a power of two") true
    (Array.length segments <= 1 || size land (size - 1) = 0);
  Array.iteri
    (fun j (off, tree) ->
      Alcotest.(check int) (Printf.sprintf "%s: offset %d" what j) (j * size) off;
      Alcotest.(check bool)
        (Printf.sprintf "%s: segment %d = build over its leaves" what j)
        true
        (tree_equal tree (PT.build (PT.leaves tree))))
    segments;
  let leaves =
    Array.concat (List.map (fun (_, t) -> PT.leaves t) (Array.to_list segments))
  in
  Alcotest.(check bool) (what ^ ": leaves concatenate to the corpus") true
    (Array.length leaves = Array.length moduli
    && Array.for_all2 N.equal leaves moduli)

(* Incremental.create keeps the largest power-of-two segment size s
   with n >= 16 s: one segment per leaf below 32 moduli, then 16 to 32
   segments. *)
let test_cut_forest_create () =
  List.iter
    (fun (n, expected) ->
      let moduli = odd_moduli n in
      let t = Inc.create moduli in
      let what = Printf.sprintf "create over %d" n in
      Alcotest.(check int) (what ^ ": segments") expected (Inc.segment_count t);
      check_cut what moduli (Inc.segments t);
      Alcotest.(check bool) (what ^ ": findings = factor_batch") true
        (BG.findings_equal (BG.factor_batch moduli) (Inc.findings t)))
    [ (1, 1); (15, 15); (16, 16); (31, 31); (32, 16); (33, 17); (2500, 20) ];
  Alcotest.(check int) "create over nothing" 0
    (Inc.segment_count (Inc.create [||]))

(* Sharded.create cuts at log2 stride: the forest holds one segment
   per shard, the corpus tree's subtree over the shard's ids, before
   and after the round trip through the checkpoint file. *)
let test_cut_forest_sharded () =
  let moduli = odd_moduli 37 in
  let n = Array.length moduli in
  List.iter
    (fun stride ->
      let sh = Sh.create ~stride moduli in
      let what = Printf.sprintf "stride %d" stride in
      Alcotest.(check int) (what ^ ": shards") ((n + stride - 1) / stride)
        (Sh.shard_count sh);
      Alcotest.(check bool) (what ^ ": findings = factor_batch") true
        (BG.findings_equal (BG.factor_batch moduli) (Sh.findings sh));
      let check_forest what sh =
        let segments = Inc.segments (Sh.forest sh) in
        Alcotest.(check int) (what ^ ": one segment per shard")
          (Sh.shard_count sh) (Array.length segments);
        Array.iteri
          (fun s (off, _) ->
            Alcotest.(check int) (what ^ ": shard offset") (s * stride) off)
          segments;
        check_cut what moduli segments
      in
      check_forest what sh;
      with_temp_dir (fun dir ->
          Sh.save_dir sh dir;
          check_forest (what ^ ", restored") (Sh.load_dir dir)))
    [ 1; 4; 8; 64; 128 ]

let test_cut_forest_save_load () =
  let moduli = odd_moduli 120 in
  let t =
    Inc.extend (Inc.create (Array.sub moduli 0 100)) (Array.sub moduli 100 20)
  in
  Alcotest.(check int) "25 segments of 4, then the delta" 26
    (Inc.segment_count t);
  with_temp_checkpoint (fun path ->
      Out_channel.with_open_bin path (fun oc -> Inc.save oc t);
      let t' = In_channel.with_open_bin path Inc.load in
      Alcotest.(check int) "segments round-trip" (Inc.segment_count t)
        (Inc.segment_count t');
      Array.iter2
        (fun (o, a) (o', b) ->
          Alcotest.(check int) "offset round-trips" o o';
          Alcotest.(check bool) "tree round-trips level by level" true
            (tree_equal a b))
        (Inc.segments t) (Inc.segments t');
      Alcotest.(check bool) "findings round-trip" true
        (BG.findings_equal (Inc.findings t) (Inc.findings t')))

(* One stride rule for the pipeline and the CLI: a power of two that
   never makes more shards than asked for. *)
let test_stride_for () =
  List.iter
    (fun shards ->
      List.iter
        (fun n ->
          let stride = Sh.stride_for ~shards n in
          let what = Printf.sprintf "%d shards over %d" shards n in
          Alcotest.(check bool) (what ^ ": power of two") true
            (stride > 0 && stride land (stride - 1) = 0);
          Alcotest.(check bool) (what ^ ": at most that many shards") true
            (Sh.shard_count (Sh.create ~stride (odd_moduli n)) <= shards))
        [ 0; 1; 1000 ])
    [ 1; 3; 4; 5 ];
  Alcotest.check_raises "shards must be positive"
    (Invalid_argument "Batchgcd.Sharded.stride_for: shards must be >= 1")
    (fun () -> ignore (Sh.stride_for ~shards:0 10))

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
  walk_incremental l

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

(* [bytes] as a whole checkpoint file, read by a channel loader... *)
let read_file load bytes =
  with_temp_checkpoint (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
      In_channel.with_open_bin path (fun ic ->
          let v = load ic in
          Corpus.Io.expect_end ic;
          v))

(* ... or as the [sweep] file of a sharded checkpoint directory. *)
let read_sweep_dir bytes =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      Out_channel.with_open_bin (Filename.concat dir "sweep") (fun oc ->
          output_string oc bytes);
      Sh.load_dir dir)

(* Reading [bytes] must raise Corrupt or End_of_file, or load exactly
   the checkpoint it claims to be (a byte-equal re-save). *)
let check_load ~read ~save ~original name bytes =
  match read bytes with
  | v ->
    if not (String.equal (saved save v) original) then
      Alcotest.failf "%s: loaded different contents" name
  | exception (Corpus.Io.Corrupt _ | End_of_file) -> ()

let put32 b o v =
  for k = 0 to 3 do
    Bytes.set b (o + k) (Char.chr ((v lsr (8 * (3 - k))) land 0xff))
  done

let fuzz_checkpoint ~seed ~walk ~read ~save v =
  let original = saved save v in
  let l = layout walk original in
  check_load ~read ~save ~original "untouched" original;
  List.iter
    (fun cut ->
      check_load ~read ~save ~original
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
          check_load ~read ~save ~original
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
    Inc.extend (Inc.create (Array.sub moduli 0 9)) (Array.sub moduli 9 6)
  in
  Alcotest.(check bool) "incremental checkpoint has findings" true
    (Inc.findings inc <> []);
  fuzz_checkpoint ~seed:89 ~walk:walk_incremental ~read:(read_file Inc.load)
    ~save:Inc.save inc;
  let sh = Sh.create ~stride:4 moduli in
  fuzz_checkpoint ~seed:97 ~walk:walk_sharded ~read:(read_file Sh.load)
    ~save:Sh.save sh

(* The same fuzz through Sharded.load_dir, over an extended state whose
   forest mixes whole-shard, top-up and partial segments. The stride
   field is also checked value by value: a non-power of two, one that a
   segment crosses, or a wider power of two that the stored shard count
   contradicts is Corrupt. A forest holding one modulus twice is
   Corrupt too. *)
let test_sharded_load_dir_fuzz () =
  let moduli, _ = corpus ~seed:101 ~n_clean:13 ~n_shared:4 () in
  let sh = Sh.create ~stride:4 (Array.sub moduli 0 15) in
  let sh = Sh.extend sh (Array.sub moduli 15 (Array.length moduli - 15)) in
  Alcotest.(check bool) "checkpoint has findings" true (Sh.findings sh <> []);
  fuzz_checkpoint ~seed:103 ~walk:walk_sharded ~read:read_sweep_dir
    ~save:Sh.save sh;
  let magic = "weakkeys-sharded/2" in
  let original = saved Sh.save sh in
  let stride_at = 4 + String.length magic in
  Alcotest.(check int) "stride field" 4 (be32 original stride_at);
  let with_stride v =
    let b = Bytes.of_string original in
    put32 b stride_at v;
    Bytes.to_string b
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "stride %d is Corrupt" v) true
        (try
           ignore (read_sweep_dir (with_stride v));
           false
         with Corpus.Io.Corrupt _ -> true))
    [ 0; 1; 2; 3; 5; 6; 8; 16; 0x7fffffff ];
  let dup = Inc.create [| moduli.(0); moduli.(1); moduli.(0) |] in
  let bytes =
    saved
      (fun oc () ->
        Corpus.Io.write_string oc magic;
        Corpus.Io.write_int oc 4;
        Corpus.Io.write_int oc 1;
        Inc.save oc dup)
      ()
  in
  Alcotest.(check bool) "duplicate modulus is Corrupt" true
    (try
       ignore (read_sweep_dir bytes);
       false
     with Corpus.Io.Corrupt _ -> true)

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

(* ---------------- Sweep and delta strategies ---------------- *)

module Bk = Batchgcd.Backend

(* Deltas of 48 and 49 moduli, the two sides of the size cutoff an
   earlier extend switched strategy at, each equal a recompute. *)
let test_backend_select_policy () =
  let moduli, _ = corpus ~bits:64 ~seed:19 ~n_clean:50 ~n_shared:10 () in
  let full = BG.factor_batch moduli in
  List.iter
    (fun d ->
      let n = Array.length moduli in
      let t = Inc.create (Array.sub moduli 0 (n - d)) in
      Alcotest.(check bool)
        (Printf.sprintf "%d-modulus delta = recompute" d)
        true
        (BG.findings_equal full
           (Inc.findings (Inc.extend t (Array.sub moduli (n - d) d)))))
    [ 48; 49 ]

(* Every sweep the Backend values name — the single tree and the
   k-subset split at several k — lands on identical findings. *)
let test_backends_findings_equal () =
  List.iter
    (fun seed ->
      List.iter
        (fun (n_clean, n_shared) ->
          let moduli, _ = corpus ~bits:64 ~seed ~n_clean ~n_shared () in
          let reference = BG.naive moduli in
          List.iter
            (fun (name, b) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s = naive (seed %d, %d moduli)" name seed
                   (Array.length moduli))
                true
                (BG.findings_equal reference (Bk.factor b moduli)))
            [
              ("tree", Bk.tree); ("k=1", Bk.ksubset_k 1);
              ("k=4", Bk.ksubset_k 4); ("k=16", Bk.ksubset_k 16);
            ])
        [ (16, 8); (32, 16); (64, 32) ])
    [ 11; 23; 37 ]

(* Every split of a small corpus with a shared prime, folded in by
   extend, lands on the naive oracle's findings; a delta coprime to
   everything adds none, on a clean base and on one with findings. *)
let test_all_to_all_pairwise_hits () =
  let moduli, _ = corpus ~seed:29 ~n_clean:6 ~n_shared:4 () in
  let n = Array.length moduli in
  let naive = BG.naive moduli in
  for d = 1 to n - 1 do
    let t = Inc.create (Array.sub moduli 0 (n - d)) in
    Alcotest.(check bool)
      (Printf.sprintf "%d-modulus extend = naive" d)
      true
      (BG.findings_equal naive
         (Inc.findings (Inc.extend t (Array.sub moduli (n - d) d))))
  done;
  let clean, _ = corpus ~seed:31 ~n_clean:4 ~n_shared:0 () in
  Alcotest.(check int) "coprime delta on a clean base" 0
    (List.length
       (Inc.findings
          (Inc.extend (Inc.create (Array.sub clean 0 2)) (Array.sub clean 2 2))));
  Alcotest.(check bool) "coprime delta adds no findings" true
    (BG.findings_equal naive (Inc.findings (Inc.extend (Inc.create moduli) clean)))

(* A 16-modulus and a 64-modulus delta, each holding moduli that share
   primes with the base and with each other, agree with a
   from-scratch recompute. *)
let test_incremental_backend_extend () =
  let moduli, _ = corpus ~bits:64 ~seed:43 ~n_clean:60 ~n_shared:20 () in
  let n = Array.length moduli in
  let full = BG.factor_batch moduli in
  List.iter
    (fun d ->
      let t = Inc.create (Array.sub moduli 0 (n - d)) in
      let t = Inc.extend t (Array.sub moduli (n - d) d) in
      Alcotest.(check bool)
        (Printf.sprintf "%d-modulus extend = recompute" d)
        true
        (BG.findings_equal full (Inc.findings t)))
    [ 16; 64 ]

(* backend_uses reports what ran: every shard on its tree after a
   sweep, and the number of shard-boundary chunks the delta ran as
   after an extend; findings never depend on either. *)
let test_sharded_backend_policy () =
  let moduli, _ = corpus ~bits:64 ~seed:47 ~n_clean:150 ~n_shared:30 () in
  let full = BG.factor_batch moduli in
  let t = Sh.create ~stride:64 (Array.sub moduli 0 100) in
  Alcotest.(check (list (pair string int)))
    "every shard descends its tree"
    [ ("tree", 2) ]
    (Sh.backend_uses t);
  Alcotest.(check bool) "sweep findings = flat" true
    (BG.findings_equal
       (BG.factor_batch (Array.sub moduli 0 100))
       (Sh.findings t));
  (* 80 fresh moduli: a 28-modulus top-up of shard 1, then 52 in a new
     shard. *)
  let t = Sh.extend t (Array.sub moduli 100 80) in
  Alcotest.(check (list (pair string int)))
    "one delta per chunk"
    [ ("delta", 2) ]
    (Sh.backend_uses t);
  Alcotest.(check bool) "extend findings = flat" true
    (BG.findings_equal full (Sh.findings t))

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

(* Adversarial corpus for the differential oracle: moduli from one
   limb (two 15-bit primes) to three, a square p^2 whose p also sits
   in another modulus, an r*s / r*t / s*t triangle, and one prime h in
   more than half the corpus, shuffled. Moduli are distinct, so
   Sharded accepts the corpus. *)
let adversarial_corpus ~seed ~n =
  let gen = mk_gen seed in
  let st = Random.State.make [| seed |] in
  let prime bits = Bignum.Prime.generate ~gen ~bits in
  let width () = [| 15; 24; 40 |].(Random.State.int st 3) in
  let h = prime 15 and p = prime 24 in
  let r = prime 15 and s = prime 24 and t = prime 40 in
  let out =
    ref [ N.sqr p; N.mul p (prime 24); N.mul r s; N.mul r t; N.mul s t ]
  in
  let len = ref 5 and with_h = ref 0 in
  while !len < n do
    let use_h = 2 * !with_h <= n in
    let m = N.mul (if use_h then h else prime (width ())) (prime (width ())) in
    if not (List.exists (N.equal m) !out) then begin
      out := m :: !out;
      incr len;
      if use_h then incr with_h
    end
  done;
  let moduli = Array.of_list !out in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = moduli.(i) in
    moduli.(i) <- moduli.(j);
    moduli.(j) <- x
  done;
  moduli

(* Every run against Batch_gcd.naive: the k-subset split at k = 1, 2
   and 16; Incremental.create, whose corpus of 57-97 moduli is cut
   into 16-48 segments; Sharded at strides 4 and 8 (the corpus size is
   1 mod 8, so both leave a 1-modulus tail shard); extends by a small
   delta (1-48 moduli) and a large one (49 and up); and a chain of two
   extends. A copy with two duplicated moduli runs
   the flat paths only, since Sharded rejects duplicates. *)
let prop_differential_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"every strategy = naive oracle (adversarial corpora)"
       ~count:10
       QCheck2.Gen.(pair (int_range 0 100_000) (int_range 7 12))
       (fun (seed, j) ->
         let moduli = adversarial_corpus ~seed ~n:((8 * j) + 1) in
         let n = Array.length moduli in
         let dup =
           Array.concat [ moduli; [| moduli.(0) |]; [| moduli.(n / 2) |] ]
         in
         let small = 1 + (seed mod 48) and large = 49 + (seed mod (n - 49)) in
         let failed = ref [] in
         let check corpus label runs =
           let oracle = BG.naive corpus in
           List.iter
             (fun (name, fs) ->
               if not (BG.findings_equal oracle (Lazy.force fs)) then
                 failed := Printf.sprintf "%s %s" label name :: !failed)
             runs
         in
         let split corpus d =
           let len = Array.length corpus in
           (Array.sub corpus 0 (len - d), Array.sub corpus (len - d) d)
         in
         let flat corpus =
           List.map
             (fun k ->
               (Printf.sprintf "subsets k=%d" k, lazy (BG.factor_subsets ~k corpus)))
             [ 1; 2; 16 ]
           @ ("create", lazy (Inc.findings (Inc.create corpus)))
             :: List.map
                  (fun d ->
                    let base, delta = split corpus d in
                    ( Printf.sprintf "extend %d" d,
                      lazy (Inc.findings (Inc.extend (Inc.create base) delta)) ))
                  [ small; large ]
           @ [
               ( Printf.sprintf "extend %d then %d" (large - small) small,
                 lazy
                   (let base, delta = split corpus large in
                    let first, last = split delta small in
                    Inc.findings (Inc.extend (Inc.extend (Inc.create base) first) last)) );
             ]
         in
         let sharded =
           List.concat_map
             (fun stride ->
               (Printf.sprintf "sharded stride=%d" stride,
                lazy (Sh.findings (Sh.create ~stride moduli)))
               :: List.map
                    (fun d ->
                      let base, delta = split moduli d in
                      ( Printf.sprintf "sharded stride=%d extend %d" stride d,
                        lazy (Sh.findings (Sh.extend (Sh.create ~stride base) delta)) ))
                    [ small; large ])
             [ 4; 8 ]
         in
         check moduli "distinct" (flat moduli @ sharded);
         check dup "duplicates" (flat dup);
         match !failed with
         | [] -> true
         | fs ->
           QCheck2.Test.fail_reportf "seed %d, %d moduli: %s" seed n
             (String.concat "; " (List.rev fs))))

(* A hits-heavy extend: moduli carry one of four primes q_0..q_3 in
   turn, so every fresh modulus shares a prime with some modulus in
   every segment (flat segments of 16, shards of 8). A prime h sits in
   more than half the corpus, and squares cross the delta boundary
   both ways: p^2 in the base with p in the delta, s in the base with
   s^2 in the delta. Deltas of 1, 16, 49 and 200, flat and sharded at
   stride 8, each equal the naive oracle. *)
let test_hits_heavy_extend () =
  let gen = mk_gen 53 in
  let prime bits = Bignum.Prime.generate ~gen ~bits in
  let q = Array.init 4 (fun _ -> prime 32) in
  let h = prime 16 and p = prime 32 and sq = prime 32 in
  let modulus i =
    let m = N.mul q.(i mod 4) (prime 32) in
    if i mod 5 < 3 then N.mul h m else m
  in
  let base = Array.init 256 modulus in
  base.(5) <- N.sqr p;
  base.(9) <- N.mul sq (prime 32);
  let fresh = Array.init 200 modulus in
  fresh.(0) <- N.mul q.(0) (N.mul p (prime 32));
  fresh.(1) <- N.mul q.(1) (N.sqr sq);
  List.iter
    (fun d ->
      let delta = Array.sub fresh 0 d in
      let oracle = BG.naive (Array.append base delta) in
      Alcotest.(check bool)
        (Printf.sprintf "flat %d-modulus extend = naive" d)
        true
        (BG.findings_equal oracle (Inc.findings (Inc.extend (Inc.create base) delta)));
      Alcotest.(check bool)
        (Printf.sprintf "stride-8 %d-modulus extend = naive" d)
        true
        (BG.findings_equal oracle
           (Sh.findings (Sh.extend (Sh.create ~stride:8 base) delta))))
    [ 1; 16; 49; 200 ]

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
    Alcotest.test_case "cut forest: create" `Quick test_cut_forest_create;
    Alcotest.test_case "cut forest: sharded" `Quick test_cut_forest_sharded;
    Alcotest.test_case "cut forest: save/load" `Quick test_cut_forest_save_load;
    Alcotest.test_case "sharded stride_for" `Quick test_stride_for;
    Alcotest.test_case "io rejects oversized length" `Quick
      test_io_rejects_oversized_length;
    Alcotest.test_case "checkpoint fuzz" `Quick test_checkpoint_fuzz;
    Alcotest.test_case "sharded load_dir fuzz" `Quick test_sharded_load_dir_fuzz;
    Alcotest.test_case "planted 1024-bit corpus" `Quick test_planted_1024;
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
    prop_differential_oracle;
    Alcotest.test_case "hits-heavy extend" `Quick test_hits_heavy_extend;
  ]
