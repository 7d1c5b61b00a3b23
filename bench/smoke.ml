(* Kernel smoke bench: a tiny-corpus timing pass over the batch-GCD
   tree kernels, fast enough to run on every `dune runtest` (via the
   @bench-smoke alias) — a gross kernel regression or a parallel vs
   sequential divergence breaks the build.

   Exit codes: 0 ok, 2 on any correctness mismatch. Timings are
   printed for humans; they are not asserted against (CI machines are
   too noisy for that — end-to-end timing is e2ebench's job). *)

module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd
module PT = Batchgcd.Product_tree
module RT = Batchgcd.Remainder_tree
module Pool = Parallel.Pool

let drbg = Hashes.Drbg.create ~seed:"bench-smoke" ()
let gen = Hashes.Drbg.gen_fn drbg

let corpus ~n ~planted =
  let shared = Bignum.Prime.generate ~gen ~bits:48 in
  Array.init n (fun i ->
      if planted > 0 && i mod (Stdlib.max 1 (n / planted)) = 0 then
        N.mul shared (Bignum.Prime.generate ~gen ~bits:48)
      else
        N.mul
          (Bignum.Prime.generate ~gen ~bits:48)
          (Bignum.Prime.generate ~gen ~bits:48))

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.eprintf "bench-smoke: FAIL %s\n%!" name
  end

let () =
  let moduli = corpus ~n:96 ~planted:8 in
  let seq = Pool.get ~domains:1 () in
  let par = Pool.get () in
  let row name secs = Printf.printf "  %-32s %8.1f ms\n%!" name (secs *. 1e3) in
  Printf.printf "bench-smoke: 96 moduli x 96 bits, %d domain(s)\n%!"
    (Pool.size par);

  let tree_s, dt = timed (fun () -> PT.build ~pool:seq moduli) in
  row "product-tree-seq" dt;
  let tree_p, dt = timed (fun () -> PT.build ~pool:par moduli) in
  row "product-tree-par" dt;
  check "parallel tree root equals sequential"
    (N.equal (PT.root tree_s) (PT.root tree_p));
  check "total_limbs agrees" (PT.total_limbs tree_s = PT.total_limbs tree_p);

  let root = PT.root tree_s in
  let rem_s, dt = timed (fun () -> RT.remainders_mod_square ~pool:seq tree_s root) in
  row "remainder-tree-seq" dt;
  let rem_p, dt = timed (fun () -> RT.remainders_mod_square ~pool:par tree_s root) in
  row "remainder-tree-par" dt;
  check "parallel descent equals sequential"
    (Array.for_all2 N.equal rem_s rem_p);

  (* Both descents against a direct per-leaf [rem]. *)
  let rem_direct, dt =
    timed (fun () -> Array.map (fun m -> N.rem root (N.sqr m)) moduli)
  in
  row "direct-rem-per-leaf" dt;
  check "mod-square descent equals direct rem"
    (Array.for_all2 N.equal rem_s rem_direct);
  let plain, dt = timed (fun () -> RT.remainders ~pool:seq tree_s root) in
  row "plain-descent" dt;
  check "plain descent equals direct rem"
    (Array.for_all2 N.equal plain (Array.map (N.rem root) moduli));

  let fb_s, dt = timed (fun () -> BG.factor_batch ~pool:seq moduli) in
  row "factor-batch-seq" dt;
  let fb_p, dt = timed (fun () -> BG.factor_batch ~pool:par moduli) in
  row "factor-batch-par" dt;
  let fs_p, dt = timed (fun () -> BG.factor_subsets ~pool:par ~k:8 moduli) in
  row "factor-subsets-k8-par" dt;
  check "factor_batch parallel = sequential" (BG.findings_equal fb_s fb_p);
  check "factor_subsets = factor_batch" (BG.findings_equal fb_s fs_p);
  check "planted factors recovered" (List.length fb_s >= 8);

  (* Strategy probe: a corpus with one freshly planted shared prime at
     both ends. The k-subset sweep at k = 1 (one tree) and k = 4, and
     a 16- and a 64-modulus extend (each delta holds one planted
     modulus, the base the other), must surface that exact divisor
     and agree with the flat reference bit for bit. *)
  let module Bk = Batchgcd.Backend in
  let module Inc = Batchgcd.Incremental in
  let planted_p = Bignum.Prime.generate ~gen ~bits:48 in
  let planted () = N.mul planted_p (Bignum.Prime.generate ~gen ~bits:48) in
  let planted_corpus =
    Array.concat [ [| planted () |]; corpus ~n:78 ~planted:0; [| planted () |] ]
  in
  let n = Array.length planted_corpus in
  let reference = BG.factor_batch ~pool:seq planted_corpus in
  check "planted prime is the reference divisor"
    (List.exists (fun f -> N.equal f.BG.divisor planted_p) reference);
  let probe name f =
    let fs, dt = timed f in
    row name dt;
    check (name ^ " recovers the planted factor")
      (List.exists (fun f -> N.equal f.BG.divisor planted_p) fs);
    check (name ^ " findings = flat reference") (BG.findings_equal reference fs)
  in
  List.iter
    (fun k ->
      probe (Printf.sprintf "ksubset-k%d-%d" k n) (fun () ->
          Bk.factor (Bk.ksubset_k k) ~pool:par planted_corpus))
    [ 1; 4 ];
  List.iter
    (fun d ->
      let base = Inc.create ~pool:par (Array.sub planted_corpus 0 (n - d)) in
      let delta = Array.sub planted_corpus (n - d) d in
      probe (Printf.sprintf "extend-%d" d) (fun () ->
          Inc.findings (Inc.extend ~pool:par base delta)))
    [ 16; 64 ];

  (* Lehmer vs binary GCD and NTT vs Toom-3, each rung called
     directly on operands small enough for every runtest, so a
     divergence fails tier-1. *)
  let module K = N.Kernel in
  let bits n = N.random_bits gen n in
  let ga = bits 4000 and gb = bits 4000 in
  let shared = bits 120 in
  let gsa = N.mul shared (bits 1900) and gsb = N.mul shared (bits 2500) in
  let gl, dt = timed (fun () -> K.gcd_lehmer ga gb) in
  row "gcd-4kbit-lehmer" dt;
  let gbin, dt = timed (fun () -> K.gcd_binary ga gb) in
  row "gcd-4kbit-binary" dt;
  check "lehmer gcd = binary gcd" (N.equal gl gbin);
  check "lehmer recovers a planted shared factor"
    (N.equal (N.rem (K.gcd_lehmer gsa gsb) shared) N.zero
    && N.equal (K.gcd_lehmer gsa gsb) (K.gcd_binary gsa gsb));
  let ma = bits 30_000 and mb = bits 30_000 in
  let p_toom, dt = timed (fun () -> K.mul_toom3 ma mb) in
  row "mul-30kbit-toom3" dt;
  let p_ntt, dt = timed (fun () -> K.mul_ntt ma mb) in
  row "mul-30kbit-ntt" dt;
  check "ntt mul = toom3 mul" (N.equal p_toom p_ntt);
  check "ntt sqr = toom3 sqr" (N.equal (K.sqr_toom3 ma) (K.sqr_ntt ma));

  (* Incremental ingest: create over the first 64 moduli, extend with
     the remaining 32, findings must match the one-shot run; then a
     checkpoint save -> load -> extend round trip through a temp file. *)
  let module Inc = Batchgcd.Incremental in
  let early = Array.sub moduli 0 64 and late = Array.sub moduli 64 32 in
  let inc0, dt = timed (fun () -> Inc.create ~pool:seq early) in
  row "incremental-create-64" dt;
  let inc1, dt = timed (fun () -> Inc.extend ~pool:seq inc0 late) in
  row "incremental-extend-32" dt;
  check "incremental extend findings = one-shot factor_batch"
    (BG.findings_equal fb_s (Inc.findings inc1));
  check "incremental corpus preserves order"
    (Array.for_all2 N.equal moduli (Inc.corpus inc1));
  let ckpt = Filename.temp_file "weakkeys-smoke" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      let (), dt =
        timed (fun () ->
            let oc = open_out_bin ckpt in
            Inc.save oc inc0;
            close_out oc)
      in
      row "incremental-save-64" dt;
      let loaded, dt =
        timed (fun () ->
            let ic = open_in_bin ckpt in
            Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Inc.load ic))
      in
      row "incremental-load-64" dt;
      check "checkpoint round trip preserves findings"
        (BG.findings_equal (Inc.findings inc0) (Inc.findings loaded));
      check "extend after checkpoint load = one-shot factor_batch"
        (BG.findings_equal fb_s (Inc.findings (Inc.extend ~pool:seq loaded late))));

  (* Sharded driver: the sweep cut into shards over a tiny corpus
     must reproduce the flat findings exactly, survive an extend
     across a shard boundary, and round-trip through a directory
     checkpoint. *)
  let module Sh = Batchgcd.Sharded in
  let sh, dt = timed (fun () -> Sh.create ~pool:seq ~stride:16 moduli) in
  row "sharded-create-96-stride16" dt;
  check "sharded sweep findings = flat factor_batch"
    (BG.findings_equal fb_s (Sh.findings sh));
  check "sharded shard count" (Sh.shard_count sh = 6);
  let sh_all, dt =
    timed (fun () -> Sh.extend ~pool:seq (Sh.create ~pool:seq ~stride:16 early) late)
  in
  row "sharded-extend-32" dt;
  check "sharded extend across boundary = one-shot"
    (BG.findings_equal fb_s (Sh.findings sh_all));
  let shdir = Filename.temp_file "weakkeys-smoke-shard" "" in
  Sys.remove shdir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists shdir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat shdir f))
          (Sys.readdir shdir);
        Sys.rmdir shdir
      end)
    (fun () ->
      let (), dt = timed (fun () -> Sh.save_dir sh_all shdir) in
      row "sharded-save-dir" dt;
      let restored, dt = timed (fun () -> Sh.load_dir shdir) in
      row "sharded-load-dir" dt;
      check "restored findings = live"
        (BG.findings_equal (Sh.findings sh_all) (Sh.findings restored));
      let delta = corpus ~n:16 ~planted:0 in
      check "restored extend = flat over union"
        (BG.findings_equal
           (BG.factor_batch ~pool:seq (Array.append moduli delta))
           (Sh.findings (Sh.extend ~pool:seq restored delta))));

  (* Attribution registry: the six builtin passes over a tiny
     synthetic context (no scans, so the corpus-driven passes do the
     work), pooled execution must produce the identical evidence
     table as sequential. A both-primes-shared pool of 4 primes (all 6
     pairings) is appended so the ibm-clique pass fires, which in turn
     feeds the shared-prime pass real labels. *)
  let module FP = Fingerprint in
  let pool_primes =
    Array.init 4 (fun _ -> Bignum.Prime.generate ~gen ~bits:48)
  in
  let clique_mods =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if i < j then Some (N.mul pool_primes.(i) pool_primes.(j))
            else None)
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let attr_moduli = Array.append moduli (Array.of_list clique_mods) in
  let fb_attr, dt = timed (fun () -> BG.factor_batch ~pool:seq attr_moduli) in
  row "attribution-factor-batch" dt;
  let store = Corpus.Store.create ~size:256 () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) attr_moduli;
  let factored, unrecovered = FP.Factored.recover fb_attr in
  let factored_index = Array.make (Corpus.Store.size store) None in
  List.iter
    (fun (f : FP.Factored.t) ->
      match Corpus.Store.find store f.FP.Factored.modulus with
      | Some id -> factored_index.(id) <- Some f
      | None -> ())
    factored;
  let ctx =
    {
      FP.Pass.Ctx.store;
      corpus = attr_moduli;
      findings = fb_attr;
      factored;
      factored_index;
      unrecovered;
      scans = [];
      certs = X509lite.Cert_store.create ();
      modulus_bits = 96;
    }
  in
  let a_seq, dt =
    timed (fun () ->
        (FP.Registry.run ~pool:seq ctx FP.Registry.builtin).FP.Registry.attribution)
  in
  row "attribution-passes-seq" dt;
  let a_par, dt =
    timed (fun () ->
        (FP.Registry.run ~pool:par ctx FP.Registry.builtin).FP.Registry.attribution)
  in
  row "attribution-passes-par" dt;
  check "pooled attribution passes = sequential"
    (FP.Attribution.equal_evidence a_seq a_par);
  (match FP.Attribution.cliques a_seq with
  | Some (c :: _) ->
    check "clique pass found the planted 4-prime pool"
      (List.length c.FP.Ibm_clique.moduli >= 6);
    let member = List.hd c.FP.Ibm_clique.moduli in
    check "clique member attributed to IBM"
      (match Corpus.Store.find store member with
      | Some id -> FP.Attribution.vendor_of a_seq id = Some "IBM"
      | None -> false)
  | _ -> check "clique pass found the planted 4-prime pool" false);

  if !failures > 0 then begin
    Printf.eprintf "bench-smoke: %d check(s) failed\n%!" !failures;
    exit 2
  end;
  print_endline "bench-smoke: all kernel checks passed"
