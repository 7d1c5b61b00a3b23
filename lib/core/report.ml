module Sc = Netsim.Scanner
module Date = X509lite.Date
module Ts = Analysis.Timeseries

let line = String.make 72 '-' ^ "\n"

let header title = Printf.sprintf "%s%s\n%s" line title line

let vulnerable t = Pipeline.is_vulnerable t
let vendor_label t r = Pipeline.vendor_of_record t r
let model_label t r = Pipeline.model_of_record t r

let vendor_series t name =
  Ts.vendor ~label:(vendor_label t) ~vulnerable:(vulnerable t) t.Pipeline.monthly
    name

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let table1 t =
  let stats = Analysis.Dataset.stats_of_scans t.Pipeline.scans in
  let vulnerable_moduli = List.length t.Pipeline.findings in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header "Table 1: dataset summary");
  List.iter
    (fun (label, v) -> Buffer.add_string buf (Printf.sprintf "  %-38s %12d\n" label v))
    [
      ("HTTPS host records", stats.Analysis.Dataset.host_records);
      ("Distinct HTTPS certificates", stats.Analysis.Dataset.distinct_certs);
      ("Distinct HTTPS moduli", Array.length t.Pipeline.https_moduli);
      ("Total distinct RSA moduli", Array.length t.Pipeline.corpus);
      ("Vulnerable RSA moduli", vulnerable_moduli);
      ("Vulnerable HTTPS host records", Pipeline.vulnerable_https_host_records t);
      ("Vulnerable HTTPS certificates", Pipeline.vulnerable_https_certs t);
    ];
  Buffer.add_string buf
    (Printf.sprintf "  %-38s %11.2f%%\n" "Vulnerable fraction of moduli"
       (100.0
       *. Float.of_int vulnerable_moduli
       /. Float.of_int (Stdlib.max 1 (Array.length t.Pipeline.corpus))));
  Buffer.contents buf

let table2 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (header "Table 2: vendor notification responses (2012 disclosure)");
  List.iter
    (fun resp ->
      let vs =
        List.filter
          (fun v -> v.Netsim.Vendor.response = resp)
          Netsim.Vendor.table2
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-18s (%2d): %s\n"
           (Netsim.Vendor.response_to_string resp)
           (List.length vs)
           (String.concat ", " (List.map (fun v -> v.Netsim.Vendor.name) vs)))
    )
    [
      Netsim.Vendor.Public_advisory;
      Netsim.Vendor.Private_response;
      Netsim.Vendor.Auto_response;
      Netsim.Vendor.No_response;
    ];
  Buffer.contents buf

let table3 t =
  let earliest =
    List.find (fun s -> s.Sc.scan_source = Sc.Eff) t.Pipeline.scans
  in
  let latest =
    List.fold_left
      (fun acc s ->
        if s.Sc.scan_source = Sc.Censys then Some s else acc)
      None t.Pipeline.scans
  in
  let row s =
    let st = Analysis.Dataset.stats_of_scans [ s ] in
    ( st.Analysis.Dataset.host_records,
      st.Analysis.Dataset.distinct_certs,
      st.Analysis.Dataset.distinct_moduli )
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header "Table 3: earliest vs latest scan");
  (match latest with
  | Some latest ->
    let h1, c1, m1 = row earliest and h2, c2, m2 = row latest in
    Buffer.add_string buf
      (Printf.sprintf "  %-24s %14s %14s\n" ""
         (Date.month_label earliest.Sc.scan_date ^ " (EFF)")
         (Date.month_label latest.Sc.scan_date ^ " (Censys)"));
    List.iter
      (fun (label, a, b) ->
        Buffer.add_string buf (Printf.sprintf "  %-24s %14d %14d\n" label a b))
      [
        ("TLS handshakes", h1, h2);
        ("Distinct certificates", c1, c2);
        ("Distinct RSA keys", m1, m2);
      ]
  | None -> Buffer.add_string buf "  (no Censys scan in corpus)\n");
  Buffer.contents buf

let table4 t =
  let vuln = Pipeline.vulnerable_by_protocol t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header "Table 4: protocol snapshots");
  Buffer.add_string buf
    (Printf.sprintf "  %-8s %-12s %12s %12s %12s\n" "Proto" "Scanned"
       "Total hosts" "RSA hosts" "Vulnerable");
  List.iter
    (fun (p : Sc.protocol_snapshot) ->
      let v = List.assoc p.Sc.protocol vuln in
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %-12s %12d %12d %12d\n"
           (Sc.protocol_name p.Sc.protocol)
           (Date.to_string p.Sc.snap_date)
           p.Sc.total_hosts p.Sc.rsa_hosts v))
    t.Pipeline.protocol_snapshots;
  Buffer.contents buf

let table5 t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (header "Table 5: OpenSSL prime fingerprint by vendor");
  match Pipeline.openssl_table t with
  | None ->
    Buffer.add_string buf "  (openssl-fingerprint pass not run)\n";
    Buffer.contents buf
  | Some rows ->
  Buffer.add_string buf
    (Printf.sprintf "  (random-prime baseline: %.1f%% satisfy)\n"
       (100.0 *. Fingerprint.Openssl_fp.satisfy_probability_random ()));
  let bucket verdict =
    List.filter_map
      (fun (v, w, n) -> if w = verdict then Some (Printf.sprintf "%s(%d)" v n) else None)
      rows
  in
  Buffer.add_string buf
    (Printf.sprintf "  Satisfy fingerprint:  %s\n"
       (String.concat ", " (bucket Fingerprint.Openssl_fp.Satisfies)));
  Buffer.add_string buf
    (Printf.sprintf "  Do not satisfy:       %s\n"
       (String.concat ", " (bucket Fingerprint.Openssl_fp.Does_not_satisfy)));
  Buffer.add_string buf
    (Printf.sprintf "  Inconclusive:         %s\n"
       (String.concat ", " (bucket Fingerprint.Openssl_fp.Inconclusive)));
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figure1 t =
  (* All scans, not the monthly representatives: the per-source
     methodology artifacts (coverage steps at source boundaries,
     double scans in overlap months) are part of what the paper's
     Figure 1 shows. *)
  let sorted =
    List.sort
      (fun a b -> Date.compare a.Sc.scan_date b.Sc.scan_date)
      t.Pipeline.scans
  in
  let s = Ts.overall ~vulnerable:(vulnerable t) sorted in
  let sources =
    String.concat " "
      (List.map
         (fun src ->
           Printf.sprintf "%s:%d" (Sc.source_name src)
             (List.length (Sc.schedule src)))
         Sc.all_sources)
  in
  header "Figure 1: hosts and vulnerable hosts over time (all sources)"
  ^ Printf.sprintf "scans per source: %s\n" sources
  ^ Analysis.Ascii_plot.two_panel ~title:"All HTTPS hosts" s

let figure2 t =
  let n = Array.length t.Pipeline.corpus in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (header "Figure 2: k-subset batch GCD (algorithm structure)");
  Buffer.add_string buf
    (Printf.sprintf
       "  corpus: %d distinct moduli; k = 16 subsets; 16x16 = 256 reduction\n\
       \  jobs executed on a domain pool. Total work grows ~quadratically\n\
       \  in k while the per-node tree shrinks, trading work for\n\
       \  parallelism exactly as in the paper's cluster run (86 min on 22\n\
       \  machines vs 500 min on one).\n"
       n);
  let sub = Stdlib.min n 2000 in
  let sample = Array.sub t.Pipeline.corpus 0 sub in
  (* Through Batchgcd.Backend (the batchgcd-outside-backend lint
     boundary): [tree] is factor_batch, [ksubset_k 4] the k-subset
     split — same findings, so the rendered text is unchanged. *)
  let a = Batchgcd.Backend.factor Batchgcd.Backend.tree sample in
  let b = Batchgcd.Backend.factor (Batchgcd.Backend.ksubset_k 4) sample in
  Buffer.add_string buf
    (Printf.sprintf
       "  equivalence check on a %d-modulus sample: single-tree and k=4\n\
       \  subset results %s (%d findings).\n"
       sub
       (if Batchgcd.Batch_gcd.findings_equal a b then "IDENTICAL" else "DIFFER")
       (List.length a));
  Buffer.contents buf

let annotated_vendor_figure t ~fig ~vendor_name ~notes =
  let s = vendor_series t vendor_name in
  let drop =
    match Ts.largest_vulnerable_drop s with
    | Some (d, k) ->
      Printf.sprintf "largest vulnerable-host drop: %d hosts into %s\n" k
        (Date.month_label d)
    | None -> "no vulnerable-host drop observed\n"
  in
  header fig
  ^ Analysis.Ascii_plot.two_panel ~title:vendor_name s
  ^ drop ^ notes

let figure3 t =
  let tr =
    Analysis.Transitions.for_vendor ~label:(vendor_label t)
      ~vulnerable:(vulnerable t) t.Pipeline.monthly "Juniper"
  in
  let notes =
    Printf.sprintf
      "advisory: 04/2012 (Security Bulletin), 07/2012 (out-of-cycle notice)\n\
       transitions: %d IPs ever, %d ever vulnerable, %d vuln->ok, %d\n\
       ok->vuln, %d flapping\n"
      tr.Analysis.Transitions.ips_ever tr.Analysis.Transitions.ips_vulnerable_ever
      tr.Analysis.Transitions.to_ok tr.Analysis.Transitions.to_vulnerable
      tr.Analysis.Transitions.flapping
  in
  annotated_vendor_figure t ~fig:"Figure 3: Juniper" ~vendor_name:"Juniper"
    ~notes

let figure4 t =
  annotated_vendor_figure t ~fig:"Figure 4: Innominate mGuard"
    ~vendor_name:"Innominate" ~notes:"advisory: 06/2012\n"

let figure5 t =
  let clique_info =
    match Fingerprint.Attribution.cliques t.Pipeline.attribution with
    | Some (c :: _) ->
      Printf.sprintf "largest prime-pool clique: %d moduli from %d primes\n"
        (List.length c.Fingerprint.Ibm_clique.moduli)
        (List.length c.Fingerprint.Ibm_clique.primes)
    | Some [] -> "no prime-pool clique detected\n"
    | None -> "(ibm-clique pass not run)\n"
  in
  annotated_vendor_figure t ~fig:"Figure 5: IBM RSA-II / BladeCenter"
    ~vendor_name:"IBM"
    ~notes:(clique_info ^ "advisory: 09/2012 (CVE-2012-2187)\n")

let figure6 t =
  annotated_vendor_figure t ~fig:"Figure 6: Cisco small business"
    ~vendor_name:"Cisco" ~notes:"responded privately; no public advisory\n"

let figure7 t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (header "Figure 7: Cisco end-of-life dates vs device population");
  List.iter
    (fun (m : Netsim.Device_model.t) ->
      match m.Netsim.Device_model.dynamics.Netsim.Device_model.eol with
      | None -> ()
      | Some eol ->
        let s =
          Ts.model ~model_label:(model_label t) ~vulnerable:(vulnerable t)
            t.Pipeline.monthly m.Netsim.Device_model.id
        in
        let peak = Ts.peak_total s in
        let at_end =
          match List.rev s.Ts.points with
          | p :: _ -> p.Ts.total
          | [] -> 0
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-18s EoL announced %s, end-of-sale %s: peak %4d -> final %4d  %s\n"
             m.Netsim.Device_model.label
             (Date.month_label eol.Netsim.Device_model.announce)
             (Date.month_label eol.Netsim.Device_model.end_of_sale)
             peak at_end
             (Analysis.Ascii_plot.sparkline
                (List.map (fun p -> p.Ts.total) s.Ts.points))))
    Netsim.Device_model.cisco_eol_models;
  Buffer.contents buf

let figure8 t =
  annotated_vendor_figure t ~fig:"Figure 8: HP iLO" ~vendor_name:"HP"
    ~notes:"HP iLO cards reportedly crashed when scanned for Heartbleed\n"

let figure9 t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (header "Figure 9: vendors that never responded to notification");
  List.iter
    (fun vendor_name ->
      let s = vendor_series t vendor_name in
      Buffer.add_string buf
        (Printf.sprintf "  %-14s total:%s  vulnerable:%s  (peaks %d / %d)\n"
           vendor_name
           (Analysis.Ascii_plot.sparkline (List.map (fun p -> p.Ts.total) s.Ts.points))
           (Analysis.Ascii_plot.sparkline
              (List.map (fun p -> p.Ts.vulnerable) s.Ts.points))
           (Ts.peak_total s) (Ts.peak_vulnerable s)))
    [
      "Technicolor"; "AVM"; "Linksys"; "Fortinet"; "ZyXEL"; "Dell"; "Kronos";
      "Xerox"; "McAfee"; "TP-Link";
    ];
  Buffer.contents buf

let figure10 t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (header "Figure 10: newly vulnerable products since 2012");
  List.iter
    (fun (vendor_name, first_vuln) ->
      let s = vendor_series t vendor_name in
      let before =
        List.fold_left
          (fun acc p ->
            if Date.(p.Ts.date < first_vuln) then Stdlib.max acc p.Ts.vulnerable
            else acc)
          0 s.Ts.points
      in
      Buffer.add_string buf
        (Printf.sprintf
           "  %-16s vulnerable:%s  (pre-%s max %d, overall peak %d)\n"
           vendor_name
           (Analysis.Ascii_plot.sparkline
              (List.map (fun p -> p.Ts.vulnerable) s.Ts.points))
           (Date.month_label first_vuln) before (Ts.peak_vulnerable s)))
    [
      ("ADTRAN", Date.of_ymd 2015 1 1);
      ("D-Link", Date.of_ymd 2012 9 1);
      ("Huawei", Date.of_ymd 2015 4 1);
      ("Sangfor", Date.of_ymd 2014 6 1);
      ("Schmid Telecom", Date.of_ymd 2013 1 1);
    ];
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Extra sections                                                      *)
(* ------------------------------------------------------------------ *)

let rimon_section t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (header "Section 3.3.3: ISP man-in-the-middle key substitution");
  (match Fingerprint.Attribution.mitm t.Pipeline.attribution with
  | None -> Buffer.add_string buf "  (mitm-substitution pass not run)\n"
  | Some [] -> Buffer.add_string buf "  no substituted keys detected\n"
  | Some ds ->
    List.iter
      (fun (d : Fingerprint.Rimon.detection) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  one key at %d distinct IPs, %d distinct subjects, %.0f%%\n\
             \  invalid signatures -> middlebox substitution (Internet Rimon\n\
             \  pattern)\n"
             (List.length d.Fingerprint.Rimon.ips)
             d.Fingerprint.Rimon.distinct_subjects
             (100. *. d.Fingerprint.Rimon.invalid_signature_fraction)))
      ds);
  Buffer.contents buf

let bit_error_section t =
  header "Section 3.3.5: non-well-formed moduli (bit errors)"
  ^
  match Pipeline.bit_error_summary t with
  | None -> "  (bit-errors pass not run)\n"
  | Some (suspects, near_corpus) ->
    Printf.sprintf
      "  flagged moduli that are not well-formed RSA moduli: %d\n\
      \  of which one bit-flip away from a corpus modulus:   %d\n\
      \  (set aside; not treated as flawed implementations)\n"
      suspects near_corpus

let overlap_section t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (header "Section 3.3.2: cross-vendor shared primes");
  (match Pipeline.shared t with
  | None -> Buffer.add_string buf "  (shared-prime pass not run)\n"
  | Some shared ->
    (match Fingerprint.Shared_prime.overlaps shared with
    | [] -> Buffer.add_string buf "  no cross-vendor overlaps\n"
    | os ->
      List.iter
        (fun (a, b, _p) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s and %s share a prime factor\n" a b))
        os);
    let extrapolated = Fingerprint.Shared_prime.extrapolated shared in
    Buffer.add_string buf
      (Printf.sprintf "  certificates labeled only via shared primes: %d\n"
         (List.length extrapolated)));
  Buffer.contents buf

let response_correlation_section t =
  let vendors =
    [
      "Juniper"; "Innominate"; "IBM"; "Cisco"; "HP"; "Technicolor"; "AVM";
      "Linksys"; "Fortinet"; "ZyXEL"; "Dell"; "Kronos"; "Xerox"; "McAfee";
      "TP-Link"; "D-Link";
    ]
  in
  let outs =
    Analysis.Response_correlation.outcomes ~label:(vendor_label t)
      ~vulnerable:(vulnerable t) t.Pipeline.monthly vendors
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (header "Section 5.2: vendor response vs end-user outcome");
  Buffer.add_string buf
    (Printf.sprintf "  %-14s %-18s %6s %6s %9s\n" "Vendor" "Response" "peak"
       "final" "decline");
  List.iter
    (fun (o : Analysis.Response_correlation.outcome) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-14s %-18s %6d %6d %8.0f%%\n"
           o.Analysis.Response_correlation.vendor
           (Netsim.Vendor.response_to_string
              o.Analysis.Response_correlation.response)
           o.Analysis.Response_correlation.peak_vulnerable
           o.Analysis.Response_correlation.final_vulnerable
           (100. *. o.Analysis.Response_correlation.decline_fraction)))
    outs;
  List.iter
    (fun (resp, mean, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  mean decline for %-18s %5.0f%%  (%d vendors)\n"
           (Netsim.Vendor.response_to_string resp)
           (100. *. mean) n))
    (Analysis.Response_correlation.by_category outs);
  let rho = Analysis.Response_correlation.spearman outs in
  Buffer.add_string buf
    (Printf.sprintf
       "  Spearman rank correlation (response strength vs decline): %+.2f\n\
       \  (the paper: \"no correlation between ... vendor response and\n\
       \  end-user vulnerability rates\")\n"
       rho);
  Buffer.contents buf

let full_report t =
  String.concat "\n"
    [
      table1 t; table2 (); table3 t; table4 t; table5 t; figure1 t; figure2 t;
      figure3 t; figure4 t; figure5 t; figure6 t; figure7 t; figure8 t;
      figure9 t; figure10 t; rimon_section t; bit_error_section t;
      overlap_section t; response_correlation_section t;
    ]
