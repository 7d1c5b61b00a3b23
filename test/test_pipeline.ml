(* End-to-end pipeline tests: the full study on the shared small world,
   checked against simulator ground truth and the paper's qualitative
   claims (who is vulnerable, where the Heartbleed drop lands, which
   vendors rise after 2012). *)

module N = Bignum.Nat
module Sc = Netsim.Scanner
module W = Netsim.World
module P = Weakkeys.Pipeline
module Ts = Analysis.Timeseries

let pipeline () = Lazy.force Worlds.small_pipeline

let test_findings_match_ground_truth () =
  let p = pipeline () in
  (* Ground truth restricted to what the pipeline can see: a corpus
     modulus is weak iff it shares a prime with ANOTHER corpus
     modulus. (The world may know of sharing partners that never
     surfaced in a scan.) *)
  let factors = W.factors_of p.P.world in
  let primes = Corpus.Store.create ~size:4096 () in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let bump pr =
    let id = Corpus.Store.intern primes pr in
    Hashtbl.replace counts id
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
  in
  Array.iter
    (fun m ->
      match factors m with
      | Some (a, b) ->
        bump a;
        bump b
      | None -> ())
    p.P.corpus;
  let corpus_truth m =
    match factors m with
    | None -> false
    | Some (a, b) ->
      let c pr =
        match Corpus.Store.find primes pr with
        | Some id -> Option.value ~default:0 (Hashtbl.find_opt counts id)
        | None -> 0
      in
      c a >= 2 || c b >= 2
  in
  List.iter
    (fun f ->
      let m = f.Batchgcd.Batch_gcd.modulus in
      Alcotest.(check bool) "finding is true or corrupt" true
        (corpus_truth m || factors m = None))
    p.P.findings;
  Array.iter
    (fun m ->
      if corpus_truth m then
        Alcotest.(check bool) "truth is found" true (P.is_vulnerable p m))
    p.P.corpus

let test_vulnerable_counts_sane () =
  let p = pipeline () in
  let n_vuln = List.length p.P.findings in
  let n = Array.length p.P.corpus in
  Alcotest.(check bool) "some vulnerable" true (n_vuln > 20);
  Alcotest.(check bool) "small minority" true (n_vuln * 10 < n)

let test_vendor_labeling_against_world () =
  (* For monthly-scan records of identifiable models, the pipeline's
     vendor label must match the simulator's model vendor. *)
  let p = pipeline () in
  let devices_by_ip_date = Hashtbl.create 4096 in
  Array.iter
    (fun d ->
      Array.iter
        (fun e ->
          Hashtbl.replace devices_by_ip_date
            (X509lite.Certificate.fingerprint e.W.cert)
            d)
        d.W.epochs)
    (W.devices p.P.world);
  let checked = ref 0 and mismatches = ref 0 in
  List.iter
    (fun (s : Sc.scan) ->
      Array.iter
        (fun (r : Sc.host_record) ->
          match
            ( P.vendor_of_record p r,
              Hashtbl.find_opt devices_by_ip_date
                (X509lite.Certificate.fingerprint r.Sc.cert) )
          with
          | Some vendor, Some d ->
            incr checked;
            if vendor <> d.W.model.Netsim.Device_model.vendor then incr mismatches
          | _ -> ())
        s.Sc.records)
    p.P.monthly;
  Alcotest.(check bool) "many labels checked" true (!checked > 1000);
  (* The Rimon middlebox substitutes keys on generic hosts; those can
     gain a pool label. Allow a tiny mismatch rate. *)
  Alcotest.(check bool)
    (Printf.sprintf "mismatches %d of %d" !mismatches !checked)
    true
    (!mismatches * 100 < !checked)

let test_heartbleed_drop_is_largest () =
  (* Figure 1's qualitative headline: the largest vulnerable-host drop
     lands on the 04/2014-05/2014 scans. *)
  let p = pipeline () in
  let s = Ts.overall ~vulnerable:(P.is_vulnerable p) p.P.monthly in
  match Ts.largest_vulnerable_drop s with
  | Some (d, _) ->
    let y, m, _ = X509lite.Date.to_ymd d in
    Alcotest.(check bool)
      (Printf.sprintf "drop lands %02d/%d" m y)
      true
      (y = 2014 && (m = 4 || m = 5))
  | None -> Alcotest.fail "expected a drop"

let test_juniper_series_shape () =
  let p = pipeline () in
  let s =
    Ts.vendor ~label:(P.vendor_of_record p) ~vulnerable:(P.is_vulnerable p)
      p.P.monthly "Juniper"
  in
  (* Note: the corpus has no scans in most of 2011; probe the December
     2010 EFF scan and a 2014 pre-Heartbleed scan. *)
  (match
     ( Ts.value_at s (X509lite.Date.of_ymd 2010 12 15),
       Ts.value_at s (X509lite.Date.of_ymd 2014 3 20) )
   with
  | Some early, Some peak ->
    Alcotest.(check bool) "total grew into 2014" true
      (peak.Ts.total > early.Ts.total)
  | _ -> Alcotest.fail "series must cover 12/2010 and 03/2014");
  match
    ( Ts.value_at s (X509lite.Date.of_ymd 2014 3 20),
      Ts.value_at s (X509lite.Date.of_ymd 2014 6 20) )
  with
  | Some before, Some after ->
    Alcotest.(check bool)
      (Printf.sprintf "heartbleed cliff %d -> %d" before.Ts.total after.Ts.total)
      true
      (after.Ts.total < before.Ts.total)
  | _ -> Alcotest.fail "points around heartbleed missing"

let test_newly_vulnerable_rise () =
  let p = pipeline () in
  let check vendor start =
    let s =
      Ts.vendor ~label:(P.vendor_of_record p) ~vulnerable:(P.is_vulnerable p)
        p.P.monthly vendor
    in
    let before, after =
      List.fold_left
        (fun (b, a) pt ->
          if X509lite.Date.(pt.Ts.date < start) then
            (Stdlib.max b pt.Ts.vulnerable, a)
          else (b, Stdlib.max a pt.Ts.vulnerable))
        (0, 0) s.Ts.points
    in
    Alcotest.(check int) (vendor ^ " zero before") 0 before;
    Alcotest.(check bool) (vendor ^ " rises after") true (after > 0)
  in
  check "Huawei" (X509lite.Date.of_ymd 2015 4 1);
  check "D-Link" (X509lite.Date.of_ymd 2012 9 1)

let test_ibm_clique_found () =
  let p = pipeline () in
  match P.cliques p with
  | c :: _ ->
    Alcotest.(check bool) "clique has several moduli" true
      (List.length c.Fingerprint.Ibm_clique.moduli >= 4);
    Alcotest.(check bool) "small prime pool" true
      (List.length c.Fingerprint.Ibm_clique.primes <= 9)
  | [] -> Alcotest.fail "IBM clique must be detected"

let test_ibm_siemens_overlap () =
  let p = pipeline () in
  let overlaps =
    match P.shared p with
    | Some shared -> Fingerprint.Shared_prime.overlaps shared
    | None -> Alcotest.fail "shared-prime pass must have run"
  in
  Alcotest.(check bool)
    (Printf.sprintf "IBM/Siemens among %d overlaps" (List.length overlaps))
    true
    (List.exists
       (fun (a, b, _) ->
         (a = "IBM" && b = "Siemens") || (a = "Siemens" && b = "IBM"))
       overlaps)

let test_table4_shape () =
  let p = pipeline () in
  let v = P.vulnerable_by_protocol p in
  let get proto = List.assoc proto v in
  Alcotest.(check bool) "https has vulnerable hosts" true (get Sc.Https > 0);
  Alcotest.(check int) "pop3s clean" 0 (get Sc.Pop3s);
  Alcotest.(check int) "imaps clean" 0 (get Sc.Imaps);
  Alcotest.(check int) "smtps clean" 0 (get Sc.Smtps)

let test_report_renders () =
  (* Every section renders without raising and is non-trivial. *)
  let p = pipeline () in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " non-trivial") true (String.length s > 80))
    [
      ("table1", Weakkeys.Report.table1 p);
      ("table2", Weakkeys.Report.table2 ());
      ("table3", Weakkeys.Report.table3 p);
      ("table4", Weakkeys.Report.table4 p);
      ("table5", Weakkeys.Report.table5 p);
      ("figure1", Weakkeys.Report.figure1 p);
      ("figure2", Weakkeys.Report.figure2 p);
      ("figure3", Weakkeys.Report.figure3 p);
      ("figure4", Weakkeys.Report.figure4 p);
      ("figure5", Weakkeys.Report.figure5 p);
      ("figure6", Weakkeys.Report.figure6 p);
      ("figure7", Weakkeys.Report.figure7 p);
      ("figure8", Weakkeys.Report.figure8 p);
      ("figure9", Weakkeys.Report.figure9 p);
      ("figure10", Weakkeys.Report.figure10 p);
      ("rimon", Weakkeys.Report.rimon_section p);
      ("bit errors", Weakkeys.Report.bit_error_section p);
      ("overlaps", Weakkeys.Report.overlap_section p);
    ]

let test_table5_ground_truth_styles () =
  (* Vendors modeled with Plain prime generation must never be
     classified as satisfying the fingerprint, and Openssl-style
     vendors never as failing it. *)
  let p = pipeline () in
  let rows = Fingerprint.Openssl_fp.classify_vendors (P.labeled_factored p) in
  let style_of vendor =
    List.find_map
      (fun (m : Netsim.Device_model.t) ->
        if m.Netsim.Device_model.vendor = vendor then
          match m.Netsim.Device_model.keygen with
          | Netsim.Device_model.Profile_keygen { style; _ } -> Some style
          | Netsim.Device_model.Ibm_keygen -> Some Rsa.Keypair.Openssl
        else None)
      Netsim.Device_model.catalog
  in
  List.iter
    (fun (vendor, verdict, _) ->
      match (style_of vendor, verdict) with
      | Some Rsa.Keypair.Plain, Fingerprint.Openssl_fp.Satisfies ->
        Alcotest.failf "%s is Plain but classified as OpenSSL" vendor
      | Some Rsa.Keypair.Openssl, Fingerprint.Openssl_fp.Does_not_satisfy ->
        (* Mixed vendors (Siemens has both an IBM-module line and a
           Plain line) may legitimately fail. *)
        if vendor <> "Siemens" && vendor <> "Dell" then
          Alcotest.failf "%s is OpenSSL-style but classified as failing" vendor
      | _ -> ())
    rows

(* Regression for the majority-vote tie-break: ties are broken by
   vendor name, so the winner cannot depend on tally iteration order
   (Hashtbl.fold order used to decide). *)
let test_majority_vendor_tie_break () =
  Alcotest.(check (option string)) "clear winner" (Some "Cisco")
    (P.majority_vendor [ ("Acme", 1); ("Cisco", 5); ("Zyxel", 2) ]);
  let ballot = [ ("Zyxel", 3); ("Acme", 3); ("Mid", 2) ] in
  Alcotest.(check (option string)) "tie -> lexicographically first"
    (Some "Acme") (P.majority_vendor ballot);
  Alcotest.(check (option string)) "tie is order-independent" (Some "Acme")
    (P.majority_vendor (List.rev ballot));
  List.iter
    (fun b ->
      Alcotest.(check (option string)) "3-way tie, any order" (Some "A")
        (P.majority_vendor b))
    [
      [ ("B", 1); ("A", 1); ("C", 1) ];
      [ ("C", 1); ("B", 1); ("A", 1) ];
      [ ("A", 1); ("C", 1); ("B", 1) ];
    ];
  Alcotest.(check (option string)) "empty ballot" None (P.majority_vendor [])

(* Snapshot ingest: of_scans over the early scans, extend with the
   late ones; findings must exactly match a from-scratch run over the
   combined corpus, and the cached forest must grow by one segment
   (no rebuild of old trees). *)
let test_extend_matches_full () =
  let world = Lazy.force Worlds.small in
  let scans = Lazy.force Worlds.small_scans in
  let cutoff = X509lite.Date.of_ymd 2014 1 1 in
  let early, late =
    List.partition
      (fun (s : Sc.scan) -> X509lite.Date.(s.Sc.scan_date < cutoff))
      scans
  in
  Alcotest.(check bool) "both halves non-empty" true (early <> [] && late <> []);
  let p0 = P.of_scans world early in
  let pe = P.extend p0 late in
  Alcotest.(check int) "one delta segment added"
    (P.gcd_segment_count p0.P.gcd + 1)
    (P.gcd_segment_count pe.P.gcd);
  Alcotest.(check int) "corpus grew" (Array.length pe.P.corpus)
    (Corpus.Store.size pe.P.store);
  Alcotest.(check bool) "extend = from-scratch over union" true
    (Batchgcd.Batch_gcd.findings_equal pe.P.findings
       (Batchgcd.Batch_gcd.factor_subsets ~k:16 pe.P.corpus));
  (* agree with the one-shot pipeline's findings, index-insensitively:
     its corpus interleaves non-HTTPS moduli at a different position *)
  let p = pipeline () in
  let key f =
    N.to_hex f.Batchgcd.Batch_gcd.modulus
    ^ "/"
    ^ N.to_hex f.Batchgcd.Batch_gcd.divisor
  in
  let set fs = List.sort_uniq String.compare (List.map key fs) in
  Alcotest.(check (list string)) "same modulus/divisor set"
    (set p.P.findings) (set pe.P.findings);
  Array.iter
    (fun m ->
      Alcotest.(check bool) "is_vulnerable agrees with one-shot pipeline"
        (P.is_vulnerable p m) (P.is_vulnerable pe m))
    pe.P.corpus

let with_temp_dir f =
  let dir = Filename.temp_file "weakkeys-ckpt" "" in
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

(* Checkpoint round trip: a rerun over the identical corpus restores
   the GCD artifact instead of recomputing, and every downstream
   number is identical. *)
let test_checkpoint_resume () =
  let world = Lazy.force Worlds.small in
  let scans = Lazy.force Worlds.small_scans in
  let subset = List.filteri (fun i _ -> i mod 6 = 0) scans in
  with_temp_dir (fun dir ->
      let p1 = P.of_scans ~checkpoint_dir:dir world subset in
      let computed =
        List.exists
          (fun (tm : Weakkeys.Stage.timing) ->
            tm.Weakkeys.Stage.stage = "batchgcd"
            && not tm.Weakkeys.Stage.restored)
          p1.P.timings
      in
      Alcotest.(check bool) "first run computes" true computed;
      let p2 = P.of_scans ~checkpoint_dir:dir world subset in
      let restored =
        List.exists
          (fun (tm : Weakkeys.Stage.timing) ->
            tm.Weakkeys.Stage.stage = "batchgcd" && tm.Weakkeys.Stage.restored)
          p2.P.timings
      in
      Alcotest.(check bool) "gcd stage restored on rerun" true restored;
      Alcotest.(check bool) "findings identical" true
        (Batchgcd.Batch_gcd.findings_equal p1.P.findings p2.P.findings);
      Alcotest.(check string) "table1 identical" (Weakkeys.Report.table1 p1)
        (Weakkeys.Report.table1 p2);
      Alcotest.(check string) "bit-error section identical"
        (Weakkeys.Report.bit_error_section p1)
        (Weakkeys.Report.bit_error_section p2))

(* Sharded GCD is an internal representation choice: running the
   pipeline with ?shards must leave every downstream artifact —
   findings, the merged evidence table, the rendered tables — exactly
   equal to the flat run, across scan subsets ("seeds") and shard
   counts, including through extend. *)
let test_sharded_pipeline_equal () =
  let world = Lazy.force Worlds.small in
  let scans = Lazy.force Worlds.small_scans in
  List.iter
    (fun (modulo, phase) ->
      let subset = List.filteri (fun i _ -> i mod modulo = phase) scans in
      let flat = P.of_scans world subset in
      List.iter
        (fun shards ->
          let sh = P.of_scans ~shards world subset in
          (match sh.P.gcd with
          | P.Sharded t ->
            Alcotest.(check bool)
              (Printf.sprintf "shards bounded (mod %d, %d shards)" modulo
                 shards)
              true
              (Batchgcd.Sharded.shard_count t <= shards)
          | P.Flat _ -> Alcotest.fail "expected a sharded gcd state");
          Alcotest.(check bool)
            (Printf.sprintf "findings equal (mod %d, %d shards)" modulo shards)
            true
            (Batchgcd.Batch_gcd.findings_equal flat.P.findings sh.P.findings);
          Alcotest.(check bool)
            (Printf.sprintf "attributions equal (mod %d, %d shards)" modulo
               shards)
            true
            (Fingerprint.Attribution.equal_evidence flat.P.attribution
               sh.P.attribution);
          Alcotest.(check string) "table1 identical"
            (Weakkeys.Report.table1 flat)
            (Weakkeys.Report.table1 sh))
        [ 2; 8 ])
    [ (5, 0); (5, 1); (5, 2) ]

(* extend on a sharded pipeline continues in sharded mode and still
   matches the flat pipeline extended with the same snapshot. *)
let test_sharded_extend_matches_flat () =
  let world = Lazy.force Worlds.small in
  let scans = Lazy.force Worlds.small_scans in
  let cutoff = X509lite.Date.of_ymd 2014 1 1 in
  let early, late =
    List.partition
      (fun (s : Sc.scan) -> X509lite.Date.(s.Sc.scan_date < cutoff))
      scans
  in
  let flat = P.extend (P.of_scans world early) late in
  let sh = P.extend (P.of_scans ~shards:4 world early) late in
  (match sh.P.gcd with
  | P.Sharded _ -> ()
  | P.Flat _ -> Alcotest.fail "extend left sharded mode");
  Alcotest.(check bool) "findings equal after extend" true
    (Batchgcd.Batch_gcd.findings_equal flat.P.findings sh.P.findings);
  Alcotest.(check bool) "attributions equal after extend" true
    (Fingerprint.Attribution.equal_evidence flat.P.attribution
       sh.P.attribution)

(* The single-tree sweep (k = 1) must leave every rendered artifact —
   the findings and the report tables — byte-identical to the paper's
   default k = 16 split, and so must extending each of the two
   differently shaped forests with the same snapshots. *)
let test_backend_pipeline_equal () =
  let world = Lazy.force Worlds.small in
  let scans = Lazy.force Worlds.small_scans in
  let subset = List.filteri (fun i _ -> i mod 3 = 0) scans in
  let check_same label default p =
    Alcotest.(check bool)
      (Printf.sprintf "findings equal (%s)" label)
      true
      (Batchgcd.Batch_gcd.findings_equal default.P.findings p.P.findings);
    Alcotest.(check string)
      (Printf.sprintf "table4 byte-identical (%s)" label)
      (Weakkeys.Report.table4 default)
      (Weakkeys.Report.table4 p);
    Alcotest.(check string)
      (Printf.sprintf "table1 byte-identical (%s)" label)
      (Weakkeys.Report.table1 default)
      (Weakkeys.Report.table1 p)
  in
  check_same "k=1" (P.of_scans world subset) (P.of_scans ~k:1 world subset);
  let cutoff = X509lite.Date.of_ymd 2014 1 1 in
  let early, late =
    List.partition
      (fun (s : Sc.scan) -> X509lite.Date.(s.Sc.scan_date < cutoff))
      scans
  in
  check_same "k=1 then extend"
    (P.extend (P.of_scans world early) late)
    (P.extend (P.of_scans ~k:1 world early) late)

let tests =
  [
    Alcotest.test_case "majority vendor tie-break" `Quick
      test_majority_vendor_tie_break;
    Alcotest.test_case "findings = ground truth" `Slow
      test_findings_match_ground_truth;
    Alcotest.test_case "vulnerable counts sane" `Slow test_vulnerable_counts_sane;
    Alcotest.test_case "vendor labels vs world" `Slow
      test_vendor_labeling_against_world;
    Alcotest.test_case "heartbleed drop largest" `Slow
      test_heartbleed_drop_is_largest;
    Alcotest.test_case "juniper shape" `Slow test_juniper_series_shape;
    Alcotest.test_case "newly vulnerable rise" `Slow test_newly_vulnerable_rise;
    Alcotest.test_case "ibm clique found" `Slow test_ibm_clique_found;
    Alcotest.test_case "ibm/siemens overlap" `Slow test_ibm_siemens_overlap;
    Alcotest.test_case "table4 shape" `Slow test_table4_shape;
    Alcotest.test_case "report renders" `Slow test_report_renders;
    Alcotest.test_case "table5 styles" `Slow test_table5_ground_truth_styles;
    Alcotest.test_case "extend = full recompute" `Slow test_extend_matches_full;
    Alcotest.test_case "checkpoint resume" `Slow test_checkpoint_resume;
    Alcotest.test_case "sharded pipeline = flat" `Slow
      test_sharded_pipeline_equal;
    Alcotest.test_case "sharded extend = flat extend" `Slow
      test_sharded_extend_matches_flat;
    Alcotest.test_case "backend pipeline = default" `Slow
      test_backend_pipeline_equal;
  ]
