module N = Bignum.Nat
module Sc = Netsim.Scanner
module Cert = X509lite.Certificate

type detection = {
  modulus : N.t;
  ips : Netsim.Ipv4.t list;
  distinct_subjects : int;
  invalid_signature_fraction : float;
}

(* Every non-intermediate record, with its modulus id. *)
let iter_records scans f =
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          if not r.Sc.is_intermediate then f s.Scan_ids.modulus_ids.(i) r)
        s.Scan_ids.scan.Sc.records)
    scans

let detect ?(min_ips = 10) store scans =
  (* A key needs at least [min_ips] records to reach [min_ips]
     addresses: count records per modulus id, and gather records only
     for the ids that pass. *)
  let counts = Array.make (Corpus.Store.size store) 0 in
  iter_records scans (fun id _ -> counts.(id) <- counts.(id) + 1);
  let by_id = Array.make (Array.length counts) [] in
  iter_records scans (fun id r ->
      if counts.(id) >= min_ips then by_id.(id) <- r :: by_id.(id));
  let out = ref [] in
  Array.iteri
    (fun id records ->
      let ips =
        List.sort_uniq Netsim.Ipv4.compare (List.map (fun r -> r.Sc.ip) records)
      in
      if records <> [] && List.length ips >= min_ips then begin
        let subjects =
          List.sort_uniq compare
            (List.map
               (fun r -> X509lite.Dn.to_string r.Sc.cert.Cert.subject)
               records)
        in
        if List.length subjects >= 2 then begin
          (* Signature check against the certificate's own key: a
             substituted key cannot verify the original signature. *)
          let total = List.length records in
          let invalid =
            List.fold_left
              (fun acc r ->
                if Cert.verify_signature r.Sc.cert r.Sc.cert.Cert.public_key
                then acc
                else acc + 1)
              0 records
          in
          let frac = Float.of_int invalid /. Float.of_int total in
          if frac > 0.5 then
            out :=
              {
                modulus = Corpus.Store.get store id;
                ips;
                distinct_subjects = List.length subjects;
                invalid_signature_fraction = frac;
              }
              :: !out
        end
      end)
    by_id;
  List.stable_sort
    (fun a b -> compare (List.length b.ips) (List.length a.ips))
    (List.rev !out)
