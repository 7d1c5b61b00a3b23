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

let test_rimon_detection_with_raised_fraction () =
  (* A private world where 5% of generic hosts sit behind the
     substituting ISP: detection must fire and must identify exactly
     the planted key. *)
  let cfg =
    {
      W.default_config with
      W.seed = "rimon-world";
      scale = 0.02;
      rimon_frac = 0.05;
    }
  in
  let w = W.build cfg in
  let scans = Sc.run_all w in
  match Fingerprint.Rimon.detect ~min_ips:5 scans with
  | [] -> Alcotest.fail "substituted key not detected"
  | d :: _ ->
    Alcotest.(check bool) "detected the planted key" true
      (N.equal d.Fingerprint.Rimon.modulus (W.rimon_public w).Rsa.Keypair.n);
    Alcotest.(check bool) "many ips" true
      (List.length d.Fingerprint.Rimon.ips >= 5);
    Alcotest.(check bool) "invalid signatures dominate" true
      (d.Fingerprint.Rimon.invalid_signature_fraction > 0.9)

let tests =
  [
    Alcotest.test_case "moduli roundtrip" `Quick test_moduli_roundtrip;
    Alcotest.test_case "host records csv" `Slow test_host_records_csv_shape;
    Alcotest.test_case "series csv" `Slow test_series_csv;
    Alcotest.test_case "findings csv" `Slow test_findings_csv;
    Alcotest.test_case "forced bit errors" `Slow test_forced_bit_errors;
    Alcotest.test_case "rimon detection" `Slow
      test_rimon_detection_with_raised_fraction;
  ]
