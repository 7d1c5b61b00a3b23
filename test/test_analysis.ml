(* Analysis tests: chain exclusion, representative-scan selection,
   dataset stats, time series and transition counting on synthetic and
   simulated data. *)

module Sc = Netsim.Scanner
module Date = X509lite.Date
module N = Bignum.Nat
module Ds = Analysis.Dataset
module Ts = Analysis.Timeseries

let scans () = Lazy.force Worlds.small_scans

(* Scans with every record's certificate and modulus interned. *)
let interned ?(certs = X509lite.Cert_store.create ())
    ?(store = Corpus.Store.create ()) scans =
  List.map (Fingerprint.Scan_ids.intern certs store) scans

(* The flagged-modulus set holding every id of the scans. *)
let all_moduli ids =
  let set = Corpus.Id_set.create () in
  List.iter
    (fun (s : Fingerprint.Scan_ids.t) ->
      Array.iter (Corpus.Id_set.add set) s.Fingerprint.Scan_ids.modulus_ids)
    ids;
  set

let test_exclude_intermediates () =
  (* Every Rapid7 scan contains intermediates; exclusion must remove
     exactly the records the scanner marked, using only structure. *)
  List.iter
    (fun (s : Sc.scan) ->
      if s.Sc.scan_source = Sc.Rapid7 then begin
        let cleaned = Ds.exclude_intermediates s in
        let n_marked =
          Array.fold_left
            (fun acc r -> if r.Sc.is_intermediate then acc + 1 else acc)
            0 s.Sc.records
        in
        Alcotest.(check int)
          (Date.to_string s.Sc.scan_date)
          (Array.length s.Sc.records - n_marked)
          (Array.length cleaned.Sc.records);
        Array.iter
          (fun r ->
            Alcotest.(check bool) "no intermediate survives" false
              r.Sc.is_intermediate)
          cleaned.Sc.records
      end)
    (scans ())

let test_representative_monthly () =
  let monthly = Ds.representative_monthly (scans ()) in
  (* One scan per month, no month repeated, chronological. *)
  let months =
    List.map
      (fun s ->
        let y, m, _ = Date.to_ymd s.Sc.scan_date in
        (y, m))
      monthly
  in
  Alcotest.(check int) "unique months" (List.length months)
    (List.length (List.sort_uniq compare months));
  (* During the Ecosystem/Rapid7 overlap (10/2013 - 01/2014), Rapid7
     wins the priority. *)
  List.iter
    (fun s ->
      let y, m, _ = Date.to_ymd s.Sc.scan_date in
      if (y = 2013 && m >= 10) || (y = 2014 && m = 1) then
        Alcotest.(check string) "rapid7 preferred" "Rapid7"
          (Sc.source_name s.Sc.scan_source))
    monthly

let test_stats_counts () =
  let monthly = Ds.representative_monthly_ids (interned (scans ())) in
  Alcotest.(check bool) "interned monthly = raw monthly" true
    (List.map (fun (s : Fingerprint.Scan_ids.t) -> s.Fingerprint.Scan_ids.scan)
       monthly
    = Ds.representative_monthly (scans ()));
  let st = Ds.stats monthly in
  Alcotest.(check bool) "records > certs" true
    (st.Ds.host_records > st.Ds.distinct_certs);
  Alcotest.(check bool) "certs >= moduli" true
    (st.Ds.distinct_certs >= st.Ds.distinct_moduli);
  Alcotest.(check bool) "moduli positive" true (st.Ds.distinct_moduli > 0)

let test_overall_series_invariants () =
  let monthly = Ds.representative_monthly_ids (interned (scans ())) in
  let s = Ts.overall ~vulnerable:(Corpus.Id_set.create ()) monthly in
  List.iter
    (fun p ->
      Alcotest.(check int) "no vulnerable with false oracle" 0 p.Ts.vulnerable)
    s.Ts.points;
  let s2 = Ts.overall ~vulnerable:(all_moduli monthly) monthly in
  List.iter
    (fun p ->
      Alcotest.(check int) "all vulnerable with true oracle" p.Ts.total
        p.Ts.vulnerable)
    s2.Ts.points

let test_series_chronological () =
  let monthly = Ds.representative_monthly_ids (interned (scans ())) in
  let s = Ts.overall ~vulnerable:(Corpus.Id_set.create ()) monthly in
  let rec check = function
    | a :: (b :: _ as rest) ->
      Alcotest.(check bool) "sorted" true Date.(a.Ts.date <= b.Ts.date);
      check rest
    | _ -> ()
  in
  check s.Ts.points

let test_largest_drop () =
  let mk date total vulnerable =
    { Ts.date; source = Sc.Censys; total; vulnerable }
  in
  let s =
    {
      Ts.name = "synthetic";
      points =
        [
          mk (Date.of_ymd 2014 1 15) 100 50;
          mk (Date.of_ymd 2014 2 15) 100 48;
          mk (Date.of_ymd 2014 3 15) 100 49;
          mk (Date.of_ymd 2014 4 15) 100 20;
          mk (Date.of_ymd 2014 5 15) 100 22;
        ];
    }
  in
  match Ts.largest_vulnerable_drop s with
  | Some (d, drop) ->
    Alcotest.(check int) "drop size" 29 drop;
    Alcotest.(check string) "drop month" "04/2014" (Date.month_label d)
  | None -> Alcotest.fail "drop expected"

let test_value_at () =
  let mk date total = { Ts.date; source = Sc.Eff; total; vulnerable = 0 } in
  let s =
    { Ts.name = "s"; points = [ mk (Date.of_ymd 2012 6 15) 10 ] }
  in
  (match Ts.value_at s (Date.of_ymd 2012 7 1) with
  | Some p -> Alcotest.(check int) "nearest" 10 p.Ts.total
  | None -> Alcotest.fail "point expected");
  Alcotest.(check bool) "too far" true
    (Ts.value_at s (Date.of_ymd 2013 7 1) = None)

let test_transitions_synthetic () =
  (* Build three synthetic monthly scans with one IP flapping. *)
  let k1 = Rsa.Keypair.generate ~gen:(Worlds.gen_of 61) ~bits:96 () in
  let k2 = Rsa.Keypair.generate ~gen:(Worlds.gen_of 62) ~bits:96 () in
  let cert k =
    X509lite.Certificate.self_sign ~serial:N.one
      ~subject:(X509lite.Dn.make ~cn:"system generated" ())
      ~not_before:(Date.of_ymd 2012 1 1)
      ~not_after:(Date.of_ymd 2022 1 1)
      ~key:k ()
  in
  let ip = Netsim.Ipv4.of_string "198.51.100.7" in
  let record date k =
    {
      Sc.source = Sc.Censys;
      date;
      ip;
      cert = cert k;
      is_intermediate = false;
      page_title = None;
    }
  in
  let scan date k =
    { Sc.scan_source = Sc.Censys; scan_date = date; records = [| record date k |] }
  in
  let scans =
    [
      scan (Date.of_ymd 2013 1 15) k1;
      scan (Date.of_ymd 2013 2 15) k2;
      scan (Date.of_ymd 2013 3 15) k1;
    ]
  in
  let store = Corpus.Store.create () in
  let ids = interned ~store scans in
  let vulnerable = Corpus.Id_set.create () in
  Corpus.Id_set.add vulnerable
    (Corpus.Store.intern store k1.Rsa.Keypair.pub.Rsa.Keypair.n);
  (* Every record carries the one key, index 0. *)
  let keyed =
    List.map
      (fun (s : Fingerprint.Scan_ids.t) ->
        { Ts.ids = s; keys = Array.map (fun _ -> 0) s.Fingerprint.Scan_ids.cert_ids })
      ids
  in
  let tr = Analysis.Transitions.for_key ~vulnerable keyed 0 in
  Alcotest.(check int) "one ip" 1 tr.Analysis.Transitions.ips_ever;
  Alcotest.(check int) "vulnerable ever" 1
    tr.Analysis.Transitions.ips_vulnerable_ever;
  Alcotest.(check int) "flapping" 1 tr.Analysis.Transitions.flapping;
  Alcotest.(check int) "no single to_ok" 0 tr.Analysis.Transitions.to_ok

let test_response_correlation_math () =
  let mk vendor response peak final =
    {
      Analysis.Response_correlation.vendor;
      response;
      peak_vulnerable = peak;
      final_vulnerable = final;
      decline_fraction =
        (if peak = 0 then 0.
         else Float.of_int (peak - final) /. Float.of_int peak);
    }
  in
  (* Perfect positive correlation: stronger response, bigger decline. *)
  let outs =
    [
      mk "A" Netsim.Vendor.Public_advisory 100 10;
      mk "B" Netsim.Vendor.Private_response 100 40;
      mk "C" Netsim.Vendor.Auto_response 100 60;
      mk "D" Netsim.Vendor.No_response 100 90;
    ]
  in
  let rho = Analysis.Response_correlation.spearman outs in
  Alcotest.(check bool) (Printf.sprintf "rho=%f" rho) true (rho > 0.99);
  (* Reversed: perfect negative. *)
  let outs_rev =
    [
      mk "A" Netsim.Vendor.Public_advisory 100 90;
      mk "B" Netsim.Vendor.Private_response 100 60;
      mk "C" Netsim.Vendor.Auto_response 100 40;
      mk "D" Netsim.Vendor.No_response 100 10;
    ]
  in
  let rho = Analysis.Response_correlation.spearman outs_rev in
  Alcotest.(check bool) (Printf.sprintf "rho=%f" rho) true (rho < -0.99);
  (* Never-vulnerable vendors are excluded; < 3 points gives NaN. *)
  let tiny = [ mk "A" Netsim.Vendor.No_response 0 0 ] in
  Alcotest.(check bool) "nan on tiny" true
    (Float.is_nan (Analysis.Response_correlation.spearman tiny))

let test_response_correlation_categories () =
  let mk vendor response peak final =
    {
      Analysis.Response_correlation.vendor;
      response;
      peak_vulnerable = peak;
      final_vulnerable = final;
      decline_fraction =
        (if peak = 0 then 0.
         else Float.of_int (peak - final) /. Float.of_int peak);
    }
  in
  let outs =
    [
      mk "A" Netsim.Vendor.Public_advisory 100 50;
      mk "B" Netsim.Vendor.Public_advisory 100 30;
      mk "C" Netsim.Vendor.No_response 100 80;
    ]
  in
  match Analysis.Response_correlation.by_category outs with
  | [ (Netsim.Vendor.Public_advisory, mean, 2); (Netsim.Vendor.No_response, m2, 1) ]
    ->
    Alcotest.(check bool) "mean 0.6" true (Float.abs (mean -. 0.6) < 1e-9);
    Alcotest.(check bool) "mean 0.2" true (Float.abs (m2 -. 0.2) < 1e-9)
  | l -> Alcotest.failf "unexpected category list of length %d" (List.length l)

let test_exclude_idempotent () =
  (* Chain exclusion is idempotent: a second pass removes nothing. *)
  List.iter
    (fun (s : Sc.scan) ->
      if s.Sc.scan_source = Sc.Rapid7 then begin
        let once = Ds.exclude_intermediates s in
        let twice = Ds.exclude_intermediates once in
        Alcotest.(check int)
          (Date.to_string s.Sc.scan_date)
          (Array.length once.Sc.records)
          (Array.length twice.Sc.records)
      end)
    (scans ())

(* Two pick lists are the same when, pick by pick, the date, source,
   record ids and record addresses agree. *)
let check_picks what expected got =
  let key (s : Fingerprint.Scan_ids.t) =
    let scan = s.Fingerprint.Scan_ids.scan in
    ( (Date.to_string scan.Sc.scan_date, Sc.source_name scan.Sc.scan_source),
      ( Array.map (fun r -> r.Sc.ip) scan.Sc.records,
        (s.Fingerprint.Scan_ids.cert_ids, s.Fingerprint.Scan_ids.modulus_ids) ) )
  in
  Alcotest.(check (list (pair (pair string string)
                           (pair (array int) (pair (array int) (array int))))))
    what (List.map key expected) (List.map key got)

(* Updating the picks of a prefix with the rest of the scans is the
   pick rule over all of them, at every split point and scan by scan. *)
let test_extend_monthly_splits () =
  let ids = interned (scans ()) in
  let whole = Ds.representative_monthly_ids ids in
  (* The picks are chain-excluded: no record the scanner marked as an
     intermediate survives, and each keeps what exclusion keeps. *)
  List.iter
    (fun (s : Fingerprint.Scan_ids.t) ->
      let scan = s.Fingerprint.Scan_ids.scan in
      let raw =
        List.find
          (fun (r : Sc.scan) ->
            Date.compare r.Sc.scan_date scan.Sc.scan_date = 0
            && r.Sc.scan_source = scan.Sc.scan_source)
          (scans ())
      in
      Alcotest.(check int)
        (Date.to_string scan.Sc.scan_date ^ ": records kept")
        (Array.length (Ds.exclude_intermediates raw).Sc.records)
        (Array.length scan.Sc.records);
      Alcotest.(check bool) "no intermediate in a pick" false
        (Array.exists (fun r -> r.Sc.is_intermediate) scan.Sc.records))
    whole;
  for k = 0 to List.length ids do
    let pre = List.filteri (fun i _ -> i < k) ids in
    let suf = List.filteri (fun i _ -> i >= k) ids in
    check_picks
      (Printf.sprintf "split at %d" k)
      whole
      (Ds.extend_monthly_ids (Ds.representative_monthly_ids pre) suf)
  done;
  check_picks "one scan at a time" whole
    (List.fold_left (fun picks s -> Ds.extend_monthly_ids picks [ s ]) [] ids)

(* A split inside one month: the later scan displaces the pick only at
   strictly higher priority, and every pick it does not displace comes
   back as the parent's own value. *)
let test_extend_monthly_within_month () =
  let scan source month day =
    {
      Sc.scan_source = source;
      scan_date = Date.of_ymd 2014 month day;
      records = [||];
    }
  in
  let case what first later ~displaces =
    let ids = interned [ scan Sc.Eff 2 10; first; later ] in
    let pre = List.filteri (fun i _ -> i < 2) ids in
    let parent = Ds.representative_monthly_ids pre in
    let got = Ds.extend_monthly_ids parent [ List.nth ids 2 ] in
    check_picks what (Ds.representative_monthly_ids ids) got;
    let march = List.nth got 1 in
    Alcotest.(check string) (what ^ ": March pick")
      (Date.to_string (if displaces then later else first).Sc.scan_date)
      (Date.to_string march.Fingerprint.Scan_ids.scan.Sc.scan_date);
    Alcotest.(check bool) (what ^ ": February pick is the parent's") true
      (List.memq (List.hd got) parent);
    Alcotest.(check bool) (what ^ ": kept March pick is the parent's")
      (not displaces) (List.memq march parent)
  in
  case "higher displaces" (scan Sc.Rapid7 3 3) (scan Sc.Censys 3 20)
    ~displaces:true;
  case "equal keeps" (scan Sc.Rapid7 3 3) (scan Sc.Rapid7 3 20)
    ~displaces:false;
  case "lower keeps" (scan Sc.Censys 3 3) (scan Sc.Eff 3 20) ~displaces:false

let test_panel_renders () =
  let points =
    List.init 24 (fun i -> (Date.add_months (Date.of_ymd 2012 1 15) i, i * 3))
  in
  let out = Analysis.Ascii_plot.panel ~height:5 ~width:30 ~title:"t" points in
  let lines = String.split_on_char '\n' out in
  (* title + 5 rows + axis + label lines *)
  Alcotest.(check bool) "enough lines" true (List.length lines >= 7);
  Alcotest.(check bool) "title present" true
    (String.length (List.hd lines) > 0);
  Alcotest.(check bool) "x labels present" true
    (List.exists
       (fun l ->
         let has sub =
           let rec go i =
             i + String.length sub <= String.length l
             && (String.sub l i (String.length sub) = sub || go (i + 1))
           in
           go 0
         in
         has "01/2012")
       lines);
  (* Empty input must not raise. *)
  ignore (Analysis.Ascii_plot.panel ~title:"empty" [])

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Analysis.Ascii_plot.sparkline []);
  let s = Analysis.Ascii_plot.sparkline [ 0; 5; 10 ] in
  Alcotest.(check bool) "rises to full block" true
    (String.length s > 0
    && String.sub s (String.length s - 3) 3 = "█")

let tests =
  [
    Alcotest.test_case "exclude intermediates" `Slow test_exclude_intermediates;
    Alcotest.test_case "representative monthly" `Slow test_representative_monthly;
    Alcotest.test_case "dataset stats" `Slow test_stats_counts;
    Alcotest.test_case "series oracles" `Slow test_overall_series_invariants;
    Alcotest.test_case "series chronological" `Slow test_series_chronological;
    Alcotest.test_case "largest drop" `Quick test_largest_drop;
    Alcotest.test_case "value_at" `Quick test_value_at;
    Alcotest.test_case "transitions synthetic" `Quick test_transitions_synthetic;
    Alcotest.test_case "exclude idempotent" `Slow test_exclude_idempotent;
    Alcotest.test_case "panel renders" `Quick test_panel_renders;
    Alcotest.test_case "response correlation math" `Quick
      test_response_correlation_math;
    Alcotest.test_case "response correlation categories" `Quick
      test_response_correlation_categories;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "extend monthly = picks over union" `Slow
      test_extend_monthly_splits;
    Alcotest.test_case "extend monthly within a month" `Quick
      test_extend_monthly_within_month;
  ]
