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
  let view = P.view p in
  let names = Ts.names view.P.vendors in
  List.iter
    (fun (k : Ts.keyed) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          let key = k.Ts.keys.(i) in
          match
            ( (if key >= 0 then Some names.(key) else None),
              Hashtbl.find_opt devices_by_ip_date
                (X509lite.Certificate.fingerprint r.Sc.cert) )
          with
          | Some vendor, Some d ->
            incr checked;
            if vendor <> d.W.model.Netsim.Device_model.vendor then incr mismatches
          | _ -> ())
        k.Ts.ids.Fingerprint.Scan_ids.scan.Sc.records)
    view.P.by_vendor;
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
  let s = Ts.overall ~vulnerable:p.P.vuln_index p.P.monthly_ids in
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
  let s = P.vendor_series p "Juniper" in
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
    let s = P.vendor_series p vendor in
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
let split_pipelines =
  lazy
    (let world = Lazy.force Worlds.small in
     let scans = Lazy.force Worlds.small_scans in
     let cutoff = X509lite.Date.of_ymd 2014 1 1 in
     let early, late =
       List.partition
         (fun (s : Sc.scan) -> X509lite.Date.(s.Sc.scan_date < cutoff))
         scans
     in
     let p0 = P.of_scans world early in
     (early, late, p0, P.extend p0 late))

let test_extend_matches_full () =
  let early, late, p0, pe = Lazy.force split_pipelines in
  Alcotest.(check bool) "both halves non-empty" true (early <> [] && late <> []);
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

(* ------------------------------------------------------------------ *)
(* Differential: interned ids vs the per-record closure path           *)
(* ------------------------------------------------------------------ *)

(* The report's series before certificates were interned, kept here as
   the oracle: per-record closures over [Certificate.fingerprint]
   (memoised by value, as the pipeline once did) and modulus lookups. *)
module Oracle = struct
  let modulus (r : Sc.host_record) =
    r.Sc.cert.X509lite.Certificate.public_key.Rsa.Keypair.n

  let fingerprint =
    let memo : (X509lite.Certificate.t, string) Hashtbl.t = Hashtbl.create 4096 in
    fun c ->
      match Hashtbl.find_opt memo c with
      | Some fp -> fp
      | None ->
        let fp = X509lite.Certificate.fingerprint c in
        Hashtbl.replace memo c fp;
        fp

  (* The labels are per certificate id: key them by fingerprint once,
     and find a record's label through its certificate's fingerprint,
     never through the record's interned id. *)
  let label p =
    let by_fp = Hashtbl.create 4096 in
    Option.iter
      (Array.iteri (fun c l ->
           Hashtbl.replace by_fp (X509lite.Cert_store.fingerprint p.P.certs c) l))
      (Fingerprint.Attribution.cert_labels p.P.attribution);
    fun (r : Sc.host_record) ->
      Option.join (Hashtbl.find_opt by_fp (fingerprint r.Sc.cert))

  let vendor p =
    let label = label p in
    fun r ->
      match label r with
      | Some l -> Some l.Fingerprint.Rules.vendor
      | None -> (
        match P.id_of p (modulus r) with
        | None -> None
        | Some id ->
          Fingerprint.Attribution.vendor_of
            ~use:[ Fingerprint.Evidence.Prime_clique; Fingerprint.Evidence.Shared_prime ]
            p.P.attribution id)

  let model p =
    let label = label p in
    fun r ->
      match label r with
      | Some { Fingerprint.Rules.model_id = Some m; _ } -> Some m
      | _ -> None

  let count ~keep ~vulnerable scans name =
    let points =
      List.map
        (fun (s : Sc.scan) ->
          let total = ref 0 and vuln = ref 0 in
          Array.iter
            (fun (r : Sc.host_record) ->
              if (not r.Sc.is_intermediate) && keep r then begin
                incr total;
                if vulnerable (modulus r) then incr vuln
              end)
            s.Sc.records;
          {
            Ts.date = s.Sc.scan_date;
            source = s.Sc.scan_source;
            total = !total;
            vulnerable = !vuln;
          })
        scans
    in
    { Ts.name; points }

  let transitions ~label ~vulnerable scans vendor =
    let per_ip = Hashtbl.create 1024 in
    List.iter
      (fun (s : Sc.scan) ->
        Array.iter
          (fun (r : Sc.host_record) ->
            if (not r.Sc.is_intermediate) && label r = Some vendor then
              Hashtbl.replace per_ip r.Sc.ip
                (vulnerable (modulus r)
                :: Option.value ~default:[] (Hashtbl.find_opt per_ip r.Sc.ip)))
          s.Sc.records)
      (List.sort
         (fun a b -> X509lite.Date.compare a.Sc.scan_date b.Sc.scan_date)
         scans);
    let ever = ref 0 and vuln_ever = ref 0 and to_ok = ref 0 in
    let to_vuln = ref 0 and flapping = ref 0 in
    Hashtbl.iter
      (fun _ obs ->
        let obs = List.rev obs in
        incr ever;
        if List.exists Fun.id obs then incr vuln_ever;
        let rec changes prev acc = function
          | [] -> acc
          | v :: rest ->
            if Some v = prev then changes prev acc rest
            else
              changes (Some v)
                (match prev with None -> acc | Some q -> (q, v) :: acc)
                rest
        in
        match List.rev (changes None [] obs) with
        | [ (true, false) ] -> incr to_ok
        | [ (false, true) ] -> incr to_vuln
        | _ :: _ :: _ -> incr flapping
        | _ -> ())
      per_ip;
    {
      Analysis.Transitions.ips_ever = !ever;
      ips_vulnerable_ever = !vuln_ever;
      to_ok = !to_ok;
      to_vulnerable = !to_vuln;
      flapping = !flapping;
    }

  let vulnerable_records p =
    List.fold_left
      (fun acc (s : Sc.scan) ->
        Array.fold_left
          (fun acc r -> if P.is_vulnerable p (modulus r) then acc + 1 else acc)
          acc s.Sc.records)
      0 p.P.scans

  let distinct_certs ?(keep = fun _ -> true) scans =
    let seen = Hashtbl.create 4096 in
    List.iter
      (fun (s : Sc.scan) ->
        Array.iter
          (fun (r : Sc.host_record) ->
            if keep r then Hashtbl.replace seen (fingerprint r.Sc.cert) ())
          s.Sc.records)
      scans;
    Hashtbl.length seen
end

(* Every vendor the report plots (Figures 3-6 and 8-10, Section 5.2). *)
let report_vendors =
  [
    "Juniper"; "Innominate"; "IBM"; "Cisco"; "HP"; "Technicolor"; "AVM";
    "Linksys"; "Fortinet"; "ZyXEL"; "Dell"; "Kronos"; "Xerox"; "McAfee";
    "TP-Link"; "D-Link"; "ADTRAN"; "Huawei"; "Sangfor"; "Schmid Telecom";
  ]

let check_against_oracle what p =
  let vulnerable = P.is_vulnerable p in
  let vendor_of = Oracle.vendor p and model_of = Oracle.model p in
  let series = Alcotest.testable (fun ppf (s : Ts.series) ->
      Format.fprintf ppf "%s: %s" s.Ts.name
        (String.concat " "
           (List.map (fun (q : Ts.point) ->
                Printf.sprintf "%d/%d" q.Ts.total q.Ts.vulnerable)
              s.Ts.points)))
      ( = )
  in
  List.iter
    (fun vendor ->
      Alcotest.check series
        (Printf.sprintf "%s: %s series" what vendor)
        (Oracle.count
           ~keep:(fun r -> vendor_of r = Some vendor)
           ~vulnerable p.P.monthly vendor)
        (P.vendor_series p vendor))
    report_vendors;
  List.iter
    (fun (m : Netsim.Device_model.t) ->
      let id = m.Netsim.Device_model.id in
      Alcotest.check series
        (Printf.sprintf "%s: model %s series" what id)
        (Oracle.count ~keep:(fun r -> model_of r = Some id) ~vulnerable
           p.P.monthly id)
        (P.model_series p id))
    Netsim.Device_model.cisco_eol_models;
  Alcotest.(check bool)
    (what ^ ": Juniper transitions")
    true
    (Oracle.transitions ~label:vendor_of ~vulnerable p.P.monthly
       "Juniper"
    = P.transitions p "Juniper");
  Alcotest.(check int)
    (what ^ ": vulnerable host records")
    (Oracle.vulnerable_records p)
    (P.vulnerable_https_host_records p);
  Alcotest.(check int)
    (what ^ ": vulnerable certificates")
    (Oracle.distinct_certs
       ~keep:(fun r -> vulnerable (Oracle.modulus r))
       p.P.scans)
    (P.vulnerable_https_certs p);
  Alcotest.(check int)
    (what ^ ": distinct certificates")
    (Oracle.distinct_certs p.P.scans)
    (Analysis.Dataset.stats p.P.scan_ids).Analysis.Dataset.distinct_certs

let test_ids_match_closure_oracle () =
  check_against_oracle "of_scans" (pipeline ());
  let _, _, p0, pe = Lazy.force split_pipelines in
  check_against_oracle "extended" pe;
  (* Cert ids are stable across extend: the parent's ids keep their
     fingerprints, the parent's records keep their ids, and every
     record's id names its own certificate. *)
  let module Cs = X509lite.Cert_store in
  Alcotest.(check bool) "cert table grew" true
    (Cs.size pe.P.certs >= Cs.size p0.P.certs);
  for c = 0 to Cs.size p0.P.certs - 1 do
    Alcotest.(check string) "parent id keeps its fingerprint"
      (Cs.fingerprint p0.P.certs c) (Cs.fingerprint pe.P.certs c)
  done;
  List.iteri
    (fun i (s : Fingerprint.Scan_ids.t) ->
      let s' = List.nth pe.P.scan_ids i in
      Alcotest.(check (array int)) "parent records keep their cert ids"
        s.Fingerprint.Scan_ids.cert_ids s'.Fingerprint.Scan_ids.cert_ids)
    p0.P.scan_ids;
  List.iter
    (fun (s : Fingerprint.Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          if Cs.fingerprint pe.P.certs s.Fingerprint.Scan_ids.cert_ids.(i)
             <> Oracle.fingerprint r.Sc.cert
          then Alcotest.fail "record id names another certificate")
        s.Fingerprint.Scan_ids.scan.Sc.records)
    pe.P.scan_ids

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

(* A stage checkpoint whose findings count was lowered by one reads as
   a record one finding short with bytes left over: the restore must
   count it a miss and recompute, not hand back the short record. *)
let test_stage_short_record_recomputes () =
  let module Inc = Batchgcd.Incremental in
  let module St = Weakkeys.Stage in
  let p = N.of_int 1_000_003 and q = N.of_int 1_000_033 in
  let moduli =
    [| N.mul p q; N.mul p (N.of_int 1_000_037); N.mul q (N.of_int 1_000_039);
       N.mul p (N.of_int 1_000_081); N.mul (N.of_int 1_000_099) (N.of_int 1_000_117) |]
  in
  let inc = Inc.create moduli in
  Alcotest.(check int) "four findings" 4 (List.length (Inc.findings inc));
  let key = "stage-short-record" in
  let run dir =
    let ctx = St.ctx ~dir () in
    let v =
      St.run_cached ctx "batchgcd" ~key:(lazy key) ~save:Inc.save ~load:Inc.load (fun () ->
          Inc.create moduli)
    in
    (v, List.exists (fun (t : St.timing) -> t.St.restored) (St.timings ctx))
  in
  with_temp_dir (fun dir ->
      let _, restored = run dir in
      Alcotest.(check bool) "first run computes" false restored;
      let _, restored = run dir in
      Alcotest.(check bool) "untouched checkpoint restores" true restored;
      (* The findings count is the last int before the findings: the
         size of the same forest saved with no findings, less 4. *)
      let no_findings =
        let path = Filename.temp_file "weakkeys-stage" ".ckpt" in
        Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
            Out_channel.with_open_bin path (fun oc ->
                Inc.save oc (Inc.of_segments ~findings:[] (Inc.segments inc)));
            (Unix.stat path).Unix.st_size)
      in
      let path = Filename.concat dir "batchgcd.ckpt" in
      let bytes = Bytes.of_string (In_channel.with_open_bin path In_channel.input_all) in
      let at = 4 + String.length key + no_findings - 4 in
      Alcotest.(check int32) "findings count field" 4l (Bytes.get_int32_be bytes at);
      Bytes.set_int32_be bytes at 3l;
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes);
      let v, restored = run dir in
      Alcotest.(check bool) "short record recomputes" false restored;
      Alcotest.(check bool) "recomputed findings equal" true
        (Batchgcd.Batch_gcd.findings_equal (Inc.findings inc) (Inc.findings v));
      let _, restored = run dir in
      Alcotest.(check bool) "rewritten checkpoint restores" true restored)

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

(* The one-tree forest and the same tree cut into at most 4 shards
   must leave every rendered artifact — the findings and the report
   tables — byte-identical, and so must extending each of the two
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
  check_same "4 shards" (P.of_scans world subset)
    (P.of_scans ~shards:4 world subset);
  let cutoff = X509lite.Date.of_ymd 2014 1 1 in
  let early, late =
    List.partition
      (fun (s : Sc.scan) -> X509lite.Date.(s.Sc.scan_date < cutoff))
      scans
  in
  check_same "4 shards then extend"
    (P.extend (P.of_scans world early) late)
    (P.extend (P.of_scans ~shards:4 world early) late)

(* ------------------------------------------------------------------ *)
(* Figure 2: the run's findings, re-derived on a seeded sample         *)
(* ------------------------------------------------------------------ *)

module R = Weakkeys.Report
module BG = Batchgcd.Batch_gcd

let check_figure2_identical what ~findings_of p =
  let text = R.figure2 p in
  Alcotest.(check bool)
    (what ^ ": figure 2 says IDENTICAL")
    true
    (Stringx.contains text ": IDENTICAL.");
  Alcotest.(check bool)
    (what ^ ": figure 2 names the run's findings")
    true
    (Stringx.contains text ("run's " ^ findings_of ^ " findings"));
  let ids = R.figure2_sample p in
  Alcotest.(check bool) (what ^ ": every finding is in the sample") true
    (List.for_all
       (fun (f : BG.finding) -> Array.mem f.BG.index ids)
       p.P.findings);
  Alcotest.(check int)
    (what ^ ": sample is the findings plus 256")
    (Stdlib.min (Array.length p.P.corpus) (List.length p.P.findings + 256))
    (Array.length ids);
  let single, split = R.figure2_sweeps p ids in
  Alcotest.(check bool) (what ^ ": single-tree sample = findings") true
    (BG.findings_equal single p.P.findings);
  Alcotest.(check bool) (what ^ ": k=4 sample = findings") true
    (BG.findings_equal split p.P.findings)

let test_figure2_identical () =
  check_figure2_identical "of_scans" ~findings_of:"one-tree" (pipeline ());
  let _, _, _, pe = Lazy.force split_pipelines in
  check_figure2_identical "extended" ~findings_of:"one-tree" pe;
  let world = Lazy.force Worlds.small in
  let subset =
    List.filteri (fun i _ -> i mod 3 = 0) (Lazy.force Worlds.small_scans)
  in
  check_figure2_identical "sharded" ~findings_of:"sharded"
    (P.of_scans ~shards:4 world subset)

(* A check that only compared counts, or only the two algorithms with
   each other, would pass these doctored pipelines. *)
let test_figure2_detects_doctored_findings () =
  let p = pipeline () in
  let says_differ what q =
    Alcotest.(check bool) (what ^ ": figure 2 says DIFFER") true
      (Stringx.contains (R.figure2 q) ": DIFFER.")
  in
  let first =
    List.fold_left
      (fun (a : BG.finding) (f : BG.finding) ->
        if f.BG.index < a.BG.index then f else a)
      (List.hd p.P.findings) p.P.findings
  in
  let dropped =
    { p with P.findings = List.filter
          (fun (f : BG.finding) -> f.BG.index <> first.BG.index)
          p.P.findings }
  in
  Alcotest.(check bool) "the dropped modulus is sampled as unflagged" true
    (Array.mem first.BG.index (R.figure2_sample dropped));
  says_differ "one finding dropped" dropped;
  says_differ "one divisor replaced"
    {
      p with
      P.findings =
        List.map
          (fun (f : BG.finding) ->
            if f.BG.index = first.BG.index then { f with BG.divisor = N.one }
            else f)
          p.P.findings;
    }

(* Protocol snapshots run as pool jobs; a one-domain pool must give
   the same hosts and the same moduli, in the same order. *)
let test_protocol_snapshots_pooled () =
  let world = Lazy.force Worlds.small in
  let pooled = Sc.protocol_snapshots world in
  let seq =
    Sc.protocol_snapshots ~pool:(Parallel.Pool.get ~domains:1 ()) world
  in
  Alcotest.(check (list string)) "protocol order"
    [ "HTTPS"; "SSH"; "POP3S"; "IMAPS"; "SMTPS" ]
    (List.map (fun (s : Sc.protocol_snapshot) -> Sc.protocol_name s.Sc.protocol)
       pooled);
  List.iter2
    (fun (a : Sc.protocol_snapshot) (b : Sc.protocol_snapshot) ->
      let name = Sc.protocol_name a.Sc.protocol in
      Alcotest.(check int) (name ^ " hosts") a.Sc.total_hosts b.Sc.total_hosts;
      Alcotest.(check int) (name ^ " rsa hosts") a.Sc.rsa_hosts b.Sc.rsa_hosts;
      Alcotest.(check bool) (name ^ " moduli equal") true
        (Array.length a.Sc.rsa_moduli = Array.length b.Sc.rsa_moduli
        && Array.for_all2 N.equal a.Sc.rsa_moduli b.Sc.rsa_moduli))
    pooled seq

(* ------------------------------------------------------------------ *)
(* Attribution oracle: extend = of_scans over the union               *)
(* ------------------------------------------------------------------ *)

(* The attribution table and every artifact, rendered with modulus and
   certificate values in place of ids: two pipelines over the same
   scans number ids in different orders. Sections keep each artifact's
   own order; [by_value] sorts them for a comparison across
   pipelines, where ties broken by id may come out in another order. *)
module Attr_view = struct
  module A = Fingerprint.Attribution
  module E = Fingerprint.Evidence

  let opt = Option.value ~default:"-"
  let hex = N.to_hex
  let sorted_hexes ns = String.concat "," (List.map hex (List.sort N.compare ns))

  let evidence (p : P.t) id =
    List.map
      (fun (e : E.t) ->
        Printf.sprintf "%s/%s/%s/%h/%d/[%s]"
          (E.technique_name e.E.technique) (opt e.E.vendor) (opt e.E.model_id)
          e.E.confidence e.E.weight
          (sorted_hexes (List.map (Corpus.Store.get p.P.store) e.E.witnesses)))
      (A.evidence p.P.attribution id)

  let per_modulus (p : P.t) =
    let a = p.P.attribution in
    Array.to_list
      (Array.mapi
         (fun id m ->
           String.concat " "
             (hex m :: opt (A.vendor_of a id) :: opt (A.model_of a id)
            :: evidence p id))
         p.P.corpus)

  (* Everything but the per-modulus table. *)
  let artifacts (p : P.t) =
    let factored (f : Fingerprint.Factored.t) =
      Printf.sprintf "%s=%s*%s" (hex f.Fingerprint.Factored.modulus)
        (hex f.Fingerprint.Factored.p) (hex f.Fingerprint.Factored.q)
    in
    Worlds.artifact_lines p.P.certs p.P.attribution
    @ [
        ("factored", List.map factored p.P.factored);
        ("unrecovered", List.map hex p.P.unrecovered);
      ]

  let by_value p =
    List.map
      (fun (what, lines) -> (what, List.sort String.compare lines))
      (("evidence, vendor and model per modulus", per_modulus p)
      :: artifacts p)

  let check_equal ~what expected actual =
    List.iter2
      (fun (section, e) (_, a) ->
        Alcotest.(check (list string)) (what ^ ": " ^ section) e a)
      expected actual
end

(* The attribution stage rerun from nothing over a pipeline's own
   inputs: same ids, so the tables compare id for id. *)
let full_attribution (p : P.t) =
  let ctx =
    {
      Fingerprint.Pass.Ctx.store = p.P.store;
      corpus = p.P.corpus;
      findings = p.P.findings;
      factored = p.P.factored;
      factored_index = p.P.factored_index;
      unrecovered = p.P.unrecovered;
      scans = p.P.scan_ids;
      certs = p.P.certs;
      modulus_bits = (W.config p.P.world).W.modulus_bits;
    }
  in
  (Fingerprint.Registry.run ctx Fingerprint.Registry.builtin)
    .Fingerprint.Registry.attribution

let check_full_attribution ~what (p : P.t) =
  let full = full_attribution p in
  Alcotest.(check bool) (what ^ ": evidence = full rerun") true
    (Fingerprint.Attribution.equal_evidence full p.P.attribution);
  Attr_view.check_equal ~what
    (Attr_view.artifacts { p with P.attribution = full })
    (Attr_view.artifacts p)

(* Chained one-scan extends. Their monthly scans are the pick rule
   over the union, and each extend changes at most one pick: every
   other pick is the parent's own value, so the update re-derives
   nothing. Interning order is the same as one extend by all the late
   scans, so findings, HTTPS moduli and Table 1 must equal that
   extend's. *)
let test_chained_extends () =
  let early, late, p0, pe = Lazy.force split_pipelines in
  let step p (s : Sc.scan) =
    let p' = P.extend p [ s ] in
    let new_picks =
      List.filter (fun q -> not (List.memq q p.P.monthly_ids)) p'.P.monthly_ids
    in
    let dropped =
      List.filter (fun q -> not (List.memq q p'.P.monthly_ids)) p.P.monthly_ids
    in
    let label = X509lite.Date.to_string s.Sc.scan_date in
    Alcotest.(check bool) (label ^ ": at most one new pick") true
      (List.length new_picks <= 1);
    Alcotest.(check bool) (label ^ ": at most one pick displaced") true
      (List.length dropped <= List.length new_picks);
    check_full_attribution ~what:label p';
    p'
  in
  let chained = List.fold_left step p0 late in
  Alcotest.(check bool) "monthly = picks over the union" true
    (chained.P.monthly = Analysis.Dataset.representative_monthly (early @ late));
  Alcotest.(check bool) "findings = one extend" true
    (BG.findings_equal chained.P.findings pe.P.findings);
  let firsts = Hashtbl.create 1024 in
  let order = ref [] in
  List.iter
    (fun (s : Fingerprint.Scan_ids.t) ->
      Array.iter
        (fun id ->
          if not (Hashtbl.mem firsts id) then begin
            Hashtbl.replace firsts id ();
            order := id :: !order
          end)
        s.Fingerprint.Scan_ids.modulus_ids)
    chained.P.scan_ids;
  let oracle = List.rev_map (Corpus.Store.get chained.P.store) !order in
  List.iter
    (fun (what, https) ->
      Alcotest.(check bool) what true
        (List.equal N.equal oracle (Array.to_list https)))
    [
      ("HTTPS moduli = first observations", chained.P.https_moduli);
      ("one extend's HTTPS moduli", pe.P.https_moduli);
    ];
  Alcotest.(check string) "Table 1 = one extend" (R.table1 pe) (R.table1 chained);
  Attr_view.check_equal ~what:"chained = one extend" (Attr_view.by_value pe)
    (Attr_view.by_value chained);
  Attr_view.check_equal ~what:"chained = union"
    (Attr_view.by_value (pipeline ()))
    (Attr_view.by_value chained)

(* Every split of the small world's scan list. The pipeline over the
   first k scans is the one over k - 1 scans extended by scan k (the
   first is of_scans). At every split, that one-scan extend and an
   extend by the next three scans equal a full attribution rerun over
   their own ids. At every sixth split, and at the end of the chain,
   the pipeline extended by all remaining scans equals the run over
   all scans by value: attribution (evidence, chosen vendor and model
   per modulus, every artifact) and factorizations. Those extends are
   the costly part: each runs a delta GCD against a forest of one
   segment per earlier extend. *)
let test_attribution_extend_every_split () =
  let world = Lazy.force Worlds.small in
  let scans = Array.of_list (Lazy.force Worlds.small_scans) in
  let union = Attr_view.by_value (pipeline ()) in
  let n = Array.length scans in
  let sub k len = Array.to_list (Array.sub scans k (Int.min len (n - k))) in
  let p = ref (P.of_scans world [ scans.(0) ]) in
  for k = 1 to n - 1 do
    let what = Printf.sprintf "split %d/%d" k n in
    if k mod 6 = 1 then
      Attr_view.check_equal ~what union
        (Attr_view.by_value (P.extend !p (sub k n)));
    check_full_attribution ~what:(what ^ ", three scans")
      (P.extend !p (sub k 3));
    p := P.extend !p [ scans.(k) ];
    check_full_attribution ~what:(what ^ ", one scan") !p
  done;
  Attr_view.check_equal ~what:"end of chain" union (Attr_view.by_value !p)

let stage_restored name (p : P.t) =
  List.exists
    (fun (tm : Weakkeys.Stage.timing) ->
      tm.Weakkeys.Stage.stage = name && tm.Weakkeys.Stage.restored)
    p.P.timings

(* Only the GCD stage is checkpointed: a pipeline whose forest was
   restored still computes its attribution, so it carries every pass
   result and extends through the delta passes. The extend equals a
   full rerun over its ids and the extend of a computed parent. *)
let test_extend_after_checkpoint_restore () =
  let world = Lazy.force Worlds.small in
  let subset =
    List.filteri (fun i _ -> i mod 6 = 0) (Lazy.force Worlds.small_scans)
  in
  let k = List.length subset / 2 in
  let prefix = List.filteri (fun i _ -> i < k) subset
  and suffix = List.filteri (fun i _ -> i >= k) subset in
  with_temp_dir (fun dir ->
      ignore (P.of_scans ~checkpoint_dir:dir world prefix);
      let restored = P.of_scans ~checkpoint_dir:dir world prefix in
      Alcotest.(check bool) "batch GCD restored" true
        (stage_restored "batchgcd" restored);
      Alcotest.(check (list string)) "a result for every pass"
        (List.sort String.compare
           (List.map
              (fun p -> p.Fingerprint.Pass.name)
              Fingerprint.Registry.builtin))
        (List.sort String.compare (List.map fst restored.P.pass_results));
      let pe = P.extend restored suffix in
      check_full_attribution ~what:"after restore" pe;
      Attr_view.check_equal ~what:"restored parent = computed parent"
        (Attr_view.by_value (P.extend (P.of_scans world prefix) suffix))
        (Attr_view.by_value pe))

(* A checkpoint directory holds the GCD forest and nothing else. An
   attribution.ckpt left there by an older version is neither read nor
   rewritten: the forest restores and attribution is computed, equal by
   value to the first run's. *)
let test_stray_attribution_checkpoint () =
  let world = Lazy.force Worlds.small in
  let subset =
    List.filteri (fun i _ -> i mod 12 = 0) (Lazy.force Worlds.small_scans)
  in
  with_temp_dir (fun dir ->
      let first = P.of_scans ~checkpoint_dir:dir world subset in
      Alcotest.(check (list string)) "only the GCD checkpoint"
        [ "batchgcd.ckpt" ]
        (Array.to_list (Sys.readdir dir));
      let stray = Filename.concat dir "attribution.ckpt" in
      let old =
        "\000\000\000\064" ^ String.make 64 'a' ^ "an older attribution table"
      in
      Out_channel.with_open_bin stray (fun oc -> output_string oc old);
      let p = P.of_scans ~checkpoint_dir:dir world subset in
      Alcotest.(check bool) "batch GCD restored" true
        (stage_restored "batchgcd" p);
      Alcotest.(check (list bool)) "attribution computed, not restored"
        [ false ]
        (List.filter_map
           (fun (tm : Weakkeys.Stage.timing) ->
             if tm.Weakkeys.Stage.stage = "attribution" then
               Some tm.Weakkeys.Stage.restored
             else None)
           p.P.timings);
      Alcotest.(check string) "stray file untouched" old
        (In_channel.with_open_bin stray In_channel.input_all);
      Attr_view.check_equal ~what:"stray checkpoint"
        (Attr_view.by_value first) (Attr_view.by_value p))

(* Damaged GCD checkpoints read as a miss. batchgcd.ckpt is the key,
   the "flat" or "sharded" tag, then the forest, whose last record is
   the findings. Each damaged file below makes the stage recompute: no
   exception escapes and the findings equal a fresh run's. A flipped
   byte inside a Nat payload can still load, since no payload is
   checksummed, so the flips stay in the key and the tag. Every damaged
   file costs a batch GCD, so the world is a fifth of the small one. *)
let test_gcd_checkpoint_fuzz () =
  let world = W.build { Worlds.small_config with W.scale = 0.01 } in
  let scans = Sc.run_all world in
  List.iter
    (fun (tag, shards) ->
      with_temp_dir (fun dir ->
          let run () = P.of_scans ?shards ~checkpoint_dir:dir world scans in
          let fresh = run () in
          let path = Filename.concat dir "batchgcd.ckpt" in
          let good = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length good in
          let int_at i = Int32.to_int (String.get_int32_be good i) in
          let tag_at = 4 + int_at 0 in
          Alcotest.(check string) (tag ^ ": tag") tag
            (String.sub good (tag_at + 4) (int_at tag_at));
          let nf = List.length fresh.P.findings in
          Alcotest.(check bool) (tag ^ ": has findings") true (nf > 0);
          let nf_at =
            List.fold_left
              (fun at (f : BG.finding) ->
                let nat n = 4 + String.length (N.to_bytes_be n) in
                at - 4 - nat f.BG.modulus - nat f.BG.divisor)
              (len - 4) fresh.P.findings
          in
          Alcotest.(check int) (tag ^ ": findings count field") nf (int_at nf_at);
          let set_int i v =
            let b = Bytes.of_string good in
            Bytes.set_int32_be b i (Int32.of_int v);
            Bytes.to_string b
          in
          let flip i =
            let b = Bytes.of_string good in
            Bytes.set b i (Char.chr (Char.code good.[i] lxor 0x20));
            Bytes.to_string b
          in
          let prefix n = String.sub good 0 n in
          List.iter
            (fun (what, bytes) ->
              let what = tag ^ ": " ^ what in
              Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
              let p = run () in
              Alcotest.(check bool) (what ^ " misses") false
                (stage_restored "batchgcd" p);
              Alcotest.(check bool) (what ^ ": findings = fresh") true
                (BG.findings_equal fresh.P.findings p.P.findings))
            [
              ("empty file", prefix 0);
              ("truncated in the key's length", prefix 2);
              ("truncated in the key", prefix (tag_at / 2));
              ("truncated in the tag", prefix (tag_at + 5));
              ("truncated mid-payload", prefix ((tag_at + len) / 2));
              ("last byte dropped", prefix (len - 1));
              ("findings count - 1", set_int nf_at (nf - 1));
              ("findings count + 1", set_int nf_at (nf + 1));
              ("findings count 2^30 - 1", set_int nf_at 0x3FFFFFFF);
              ("first key byte flipped", flip 4);
              ("last key byte flipped", flip (tag_at - 1));
              ("tag length flipped", flip (tag_at + 3));
              ("tag byte flipped", flip (tag_at + 4));
            ];
          Alcotest.(check bool) (tag ^ ": rewritten checkpoint restores") true
            (stage_restored "batchgcd" (run ()))))
    [ ("flat", None); ("sharded", Some 4) ]

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
    Alcotest.test_case "ids = closure oracle" `Slow
      test_ids_match_closure_oracle;
    Alcotest.test_case "checkpoint resume" `Slow test_checkpoint_resume;
    Alcotest.test_case "sharded pipeline = flat" `Slow
      test_sharded_pipeline_equal;
    Alcotest.test_case "sharded extend = flat extend" `Slow
      test_sharded_extend_matches_flat;
    Alcotest.test_case "figure 2 identical to findings" `Slow
      test_figure2_identical;
    Alcotest.test_case "figure 2 detects doctored findings" `Slow
      test_figure2_detects_doctored_findings;
    Alcotest.test_case "protocol snapshots pooled = domains:1" `Slow
      test_protocol_snapshots_pooled;
    Alcotest.test_case "backend pipeline = default" `Slow
      test_backend_pipeline_equal;
    Alcotest.test_case "stage short record recomputes" `Quick
      test_stage_short_record_recomputes;
    Alcotest.test_case "chained extends = one extend" `Slow
      test_chained_extends;
    Alcotest.test_case "attribution extend = union, every split" `Slow
      test_attribution_extend_every_split;
    Alcotest.test_case "extend after checkpoint restore = full" `Slow
      test_extend_after_checkpoint_restore;
    Alcotest.test_case "stray attribution checkpoint ignored" `Slow
      test_stray_attribution_checkpoint;
    Alcotest.test_case "GCD checkpoint fuzz" `Slow test_gcd_checkpoint_fuzz;
  ]
