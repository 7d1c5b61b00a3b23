module Sc = Netsim.Scanner
module N = Bignum.Nat
module Cert = X509lite.Certificate

let host_records_csv certs ids =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "source,date,ip,cert_fingerprint,modulus_hex,intermediate\n";
  List.iter
    (fun (s : Fingerprint.Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%s,%s,%s,%s,%b\n"
               (Sc.source_name r.Sc.source)
               (X509lite.Date.to_string r.Sc.date)
               (Netsim.Ipv4.to_string r.Sc.ip)
               (X509lite.Cert_store.fingerprint certs
                  s.Fingerprint.Scan_ids.cert_ids.(i))
               (N.to_hex r.Sc.cert.Cert.public_key.Rsa.Keypair.n)
               r.Sc.is_intermediate))
        s.Fingerprint.Scan_ids.scan.Sc.records)
    ids;
  Buffer.contents buf

let moduli_lines moduli =
  let buf = Buffer.create 65536 in
  Array.iter (fun m -> Buffer.add_string buf (N.to_hex m ^ "\n")) moduli;
  Buffer.contents buf

let series_csv (s : Timeseries.series) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "date,source,total,vulnerable\n";
  List.iter
    (fun (p : Timeseries.point) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d\n"
           (X509lite.Date.to_string p.Timeseries.date)
           (Sc.source_name p.Timeseries.source)
           p.Timeseries.total p.Timeseries.vulnerable))
    s.Timeseries.points;
  Buffer.contents buf

let findings_csv findings =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "modulus_hex,divisor_hex\n";
  List.iter
    (fun (f : Batchgcd.Batch_gcd.finding) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s\n"
           (N.to_hex f.Batchgcd.Batch_gcd.modulus)
           (N.to_hex f.Batchgcd.Batch_gcd.divisor)))
    findings;
  Buffer.contents buf

let parse_moduli text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else Some (N.of_string ("0x" ^ line)))
  |> Array.of_list
