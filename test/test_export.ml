(* Export-format tests plus the two scanner artifacts that need
   non-default configurations to observe: forced bit errors and the
   Rimon key-substituting middlebox. *)

module N = Bignum.Nat
module Sc = Netsim.Scanner
module W = Netsim.World

let scans () = Lazy.force Worlds.small_scans

let test_moduli_roundtrip () =
  let moduli =
    Array.init 20 (fun i -> N.of_int ((i * 7919) + 3))
  in
  let text = Analysis.Export.moduli_lines moduli in
  let back = Analysis.Export.parse_moduli ("# comment\n" ^ text ^ "\n\n") in
  Alcotest.(check int) "count" 20 (Array.length back);
  Array.iteri
    (fun i m -> Alcotest.(check bool) (string_of_int i) true (N.equal m back.(i)))
    moduli

let test_host_records_csv_shape () =
  let certs = X509lite.Cert_store.create () in
  let ids =
    [ Fingerprint.Scan_ids.intern certs (Corpus.Store.create ()) (List.hd (scans ())) ]
  in
  let csv = Analysis.Export.host_records_csv certs ids in
  let lines = String.split_on_char '\n' csv in
  (match lines with
  | header :: _ ->
    Alcotest.(check string) "header"
      "source,date,ip,cert_fingerprint,modulus_hex,intermediate" header
  | [] -> Alcotest.fail "empty csv");
  let first_scan = List.hd (scans ()) in
  Alcotest.(check int) "one row per record + header + trailing"
    (Array.length first_scan.Sc.records + 2)
    (List.length lines);
  List.iteri
    (fun i line ->
      if i > 0 && line <> "" then
        Alcotest.(check int)
          (Printf.sprintf "row %d has 6 fields" i)
          6
          (List.length (String.split_on_char ',' line)))
    lines

let test_series_csv () =
  let monthly =
    Analysis.Dataset.representative_monthly_ids
      (List.map
         (Fingerprint.Scan_ids.intern (X509lite.Cert_store.create ())
            (Corpus.Store.create ()))
         (scans ()))
  in
  let s = Analysis.Timeseries.overall ~vulnerable:(Corpus.Id_set.create ()) monthly in
  let csv = Analysis.Export.series_csv s in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  Alcotest.(check int) "rows" (List.length s.Analysis.Timeseries.points + 1)
    (List.length lines)

let test_findings_csv () =
  let p = Lazy.force Worlds.small_pipeline in
  let csv = Analysis.Export.findings_csv p.Weakkeys.Pipeline.findings in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' csv) in
  Alcotest.(check int) "rows"
    (List.length p.Weakkeys.Pipeline.findings + 1)
    (List.length lines)

(* ---------------- forced scanner artifacts ---------------- *)

let test_forced_bit_errors () =
  (* A high bit-error rate must corrupt a visible fraction of records;
     corrupted moduli are not well-formed and appear (mostly) once. *)
  let w = Lazy.force Worlds.small in
  let date = X509lite.Date.of_ymd 2015 9 15 in
  let clean = Sc.run_scan ~bit_error_rate:0.0 w Sc.Censys date in
  let noisy = Sc.run_scan ~bit_error_rate:0.2 w Sc.Censys date in
  Alcotest.(check int) "same record count"
    (Array.length clean.Sc.records)
    (Array.length noisy.Sc.records);
  let moduli_of s =
    Array.map
      (fun r ->
        r.Sc.cert.X509lite.Certificate.public_key.Rsa.Keypair.n)
      s.Sc.records
  in
  let cm = moduli_of clean and nm = moduli_of noisy in
  let differing = ref 0 in
  Array.iteri
    (fun i m -> if not (N.equal m nm.(i)) then incr differing)
    cm;
  let n = Array.length cm in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d corrupted" !differing n)
    true
    (!differing > n / 10 && !differing < n / 2);
  (* Corrupted moduli differ from the original by exactly one bit. *)
  Array.iteri
    (fun i m ->
      if not (N.equal m nm.(i)) then begin
        match
          Fingerprint.Bit_errors.bitflip_neighbor
            ~known:(fun x -> N.equal x m)
            nm.(i)
        with
        | Some _ -> ()
        | None -> Alcotest.fail "corruption is not a single bit flip"
      end)
    cm

(* The record-based detector that [Rimon.detect] replaced, kept as its
   oracle: moduli interned into a private store, records grouped in a
   hash table, detections stably sorted by IP count. *)
let rimon_oracle ~min_ips scans =
  let module Cert = X509lite.Certificate in
  let store = Corpus.Store.create ~size:4096 () in
  let by_modulus : (int, Sc.host_record list) Hashtbl.t = Hashtbl.create 4096 in
  List.iter
    (fun (s : Sc.scan) ->
      Array.iter
        (fun (r : Sc.host_record) ->
          if not r.Sc.is_intermediate then begin
            let id =
              Corpus.Store.intern store r.Sc.cert.Cert.public_key.Rsa.Keypair.n
            in
            Hashtbl.replace by_modulus id
              (r :: Option.value ~default:[] (Hashtbl.find_opt by_modulus id))
          end)
        s.Sc.records)
    scans;
  let out = ref [] in
  Hashtbl.iter
    (fun id records ->
      let ips =
        List.sort_uniq Netsim.Ipv4.compare (List.map (fun r -> r.Sc.ip) records)
      in
      if List.length ips >= min_ips then begin
        let subjects =
          List.sort_uniq compare
            (List.map
               (fun r -> X509lite.Dn.to_string r.Sc.cert.Cert.subject)
               records)
        in
        if List.length subjects >= 2 then begin
          let invalid =
            List.fold_left
              (fun acc r ->
                if Cert.verify_signature r.Sc.cert r.Sc.cert.Cert.public_key
                then acc
                else acc + 1)
              0 records
          in
          let frac =
            Float.of_int invalid /. Float.of_int (List.length records)
          in
          if frac > 0.5 then
            out :=
              {
                Fingerprint.Rimon.modulus = Corpus.Store.get store id;
                ips;
                distinct_subjects = List.length subjects;
                invalid_signature_fraction = frac;
              }
              :: !out
        end
      end)
    by_modulus;
  List.sort
    (fun (a : Fingerprint.Rimon.detection) (b : Fingerprint.Rimon.detection) ->
      compare (List.length b.ips) (List.length a.ips))
    !out

let detection_equal (a : Fingerprint.Rimon.detection)
    (b : Fingerprint.Rimon.detection) =
  N.equal a.modulus b.modulus
  && List.equal Netsim.Ipv4.equal a.ips b.ips
  && a.distinct_subjects = b.distinct_subjects
  && Float.equal a.invalid_signature_fraction b.invalid_signature_fraction

let detect_by_ids ~min_ips scans =
  let certs = X509lite.Cert_store.create ()
  and store = Corpus.Store.create () in
  let ids = List.map (Fingerprint.Scan_ids.intern certs store) scans in
  Fingerprint.Rimon.detect ~min_ips store ids

(* A private world where 5% of generic hosts sit behind the
   substituting ISP. *)
let rimon_world =
  lazy
    (let w =
       W.build
         {
           W.default_config with
           W.seed = "rimon-world";
           scale = 0.02;
           rimon_frac = 0.05;
         }
     in
     (w, Sc.run_all w))

let test_rimon_detection_with_raised_fraction () =
  (* Detection must fire and must identify exactly the planted key. *)
  let w, scans = Lazy.force rimon_world in
  match detect_by_ids ~min_ips:5 scans with
  | [] -> Alcotest.fail "substituted key not detected"
  | d :: _ ->
    Alcotest.(check bool) "detected the planted key" true
      (N.equal d.Fingerprint.Rimon.modulus (W.rimon_public w).Rsa.Keypair.n);
    Alcotest.(check bool) "many ips" true
      (List.length d.Fingerprint.Rimon.ips >= 5);
    Alcotest.(check bool) "invalid signatures dominate" true
      (d.Fingerprint.Rimon.invalid_signature_fraction > 0.9)

(* The id-based detector equals the record-based oracle, detection for
   detection and in order, on the shared test world and the raised-
   fraction one, across thresholds (low ones admit more keys). *)
let test_rimon_matches_oracle () =
  let check what scans =
    List.iter
      (fun min_ips ->
        let expected = rimon_oracle ~min_ips scans in
        let actual = detect_by_ids ~min_ips scans in
        Alcotest.(check int)
          (Printf.sprintf "%s: detections (min_ips %d)" what min_ips)
          (List.length expected) (List.length actual);
        Alcotest.(check bool)
          (Printf.sprintf "%s: same detections in order (min_ips %d)" what
             min_ips)
          true
          (List.equal detection_equal expected actual))
      [ 1; 2; 5; 10 ]
  in
  check "test world" (scans ());
  let _, scans = Lazy.force rimon_world in
  check "rimon world" scans;
  Alcotest.(check bool) "the oracle detects the planted key" true
    (rimon_oracle ~min_ips:5 scans <> [])

(* Synthetic records with several substituted keys: two served from
   12 addresses (a tie, first observed in id order) and one from 14,
   next to keys that must not fire (one subject at many addresses, and
   many subjects with valid signatures). *)
let test_rimon_detection_order () =
  let module K = Rsa.Keypair in
  let module C = X509lite.Certificate in
  let key seed = K.generate ~gen:(Worlds.gen_of seed) ~bits:512 () in
  let device = key 1 and shared = key 2 in
  let mitm = Array.init 3 (fun i -> (key (10 + i)).K.pub) in
  let date = X509lite.Date.of_ymd 2015 3 15 in
  let cert ~key cn =
    C.self_sign ~serial:N.one
      ~subject:(X509lite.Dn.make ~cn ~o:"Synthetic" ())
      ~not_before:(X509lite.Date.of_ymd 2014 1 1)
      ~not_after:(X509lite.Date.of_ymd 2024 1 1)
      ~key ()
  in
  let ip = ref 0 in
  let records cert_of count =
    List.init count (fun i ->
        incr ip;
        {
          Sc.source = Sc.Censys;
          date;
          ip =
            Netsim.Ipv4.of_string
              (Printf.sprintf "10.0.%d.%d" (!ip / 200) ((!ip mod 200) + 1));
          cert = cert_of i;
          is_intermediate = false;
          page_title = None;
        })
  in
  let substituted j i =
    C.substitute_public_key
      (cert ~key:device (Printf.sprintf "host-%d-%d" j i))
      mitm.(j)
  in
  let one_subject = cert ~key:device "the-ca" in
  let scan =
    {
      Sc.scan_source = Sc.Censys;
      scan_date = date;
      records =
        Array.of_list
          (List.concat
             [
               records (fun _ -> one_subject) 20;
               records (substituted 1) 12;
               records
                 (fun i -> cert ~key:shared (Printf.sprintf "multi-%d" i))
                 15;
               records (substituted 2) 12;
               records (substituted 0) 14;
             ]);
    }
  in
  let found = detect_by_ids ~min_ips:10 [ scan ] in
  Alcotest.(check (list int)) "IP counts, largest first" [ 14; 12; 12 ]
    (List.map
       (fun (d : Fingerprint.Rimon.detection) -> List.length d.ips)
       found);
  Alcotest.(check bool) "keys, the tie in first-observed order" true
    (List.equal N.equal
       (List.map (fun (d : Fingerprint.Rimon.detection) -> d.modulus) found)
       [ mitm.(0).K.n; mitm.(1).K.n; mitm.(2).K.n ]);
  let expected = rimon_oracle ~min_ips:10 [ scan ] in
  Alcotest.(check bool) "oracle: same largest detection" true
    (detection_equal (List.hd expected) (List.hd found));
  Alcotest.(check bool) "oracle: same detections" true
    (List.for_all
       (fun d -> List.exists (detection_equal d) expected)
       found
    && List.length expected = List.length found)

let tests =
  [
    Alcotest.test_case "moduli roundtrip" `Quick test_moduli_roundtrip;
    Alcotest.test_case "host records csv" `Slow test_host_records_csv_shape;
    Alcotest.test_case "series csv" `Slow test_series_csv;
    Alcotest.test_case "findings csv" `Slow test_findings_csv;
    Alcotest.test_case "forced bit errors" `Slow test_forced_bit_errors;
    Alcotest.test_case "rimon detection" `Slow
      test_rimon_detection_with_raised_fraction;
    Alcotest.test_case "rimon ids = record oracle" `Slow
      test_rimon_matches_oracle;
    Alcotest.test_case "rimon detection order" `Quick
      test_rimon_detection_order;
  ]
