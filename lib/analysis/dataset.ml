module Sc = Netsim.Scanner
module Cert = X509lite.Certificate
module Dn = X509lite.Dn
module Date = X509lite.Date
module Id_set = Corpus.Id_set
module Scan_ids = Fingerprint.Scan_ids

(* Indices of the records [exclude_intermediates] keeps, in its output
   order. Records are grouped by IP; a record whose certificate subject
   is the issuer of another (non-self-signed) certificate at the same
   address is an intermediate, not the host certificate. The detection
   is purely structural, no [is_intermediate] peeking, and names are
   compared as [Dn.t] values, never rendered to strings. *)
let host_record_indices (scan : Sc.scan) =
  let records = scan.Sc.records in
  let by_ip = Hashtbl.create 1024 in
  Array.iteri
    (fun i (r : Sc.host_record) ->
      Hashtbl.replace by_ip r.Sc.ip
        (i :: Option.value ~default:[] (Hashtbl.find_opt by_ip r.Sc.ip)))
    records;
  let keep = ref [] in
  Hashtbl.iter
    (fun _ip group ->
      let issuers =
        List.filter_map
          (fun i ->
            let c = records.(i).Sc.cert in
            if Dn.equal c.Cert.issuer c.Cert.subject then None
            else Some c.Cert.issuer)
          group
      in
      List.iter
        (fun i ->
          let subj = records.(i).Sc.cert.Cert.subject in
          if not (List.exists (Dn.equal subj) issuers) then keep := i :: !keep)
        group)
    by_ip;
  Array.of_list !keep

let exclude_intermediates (scan : Sc.scan) =
  {
    scan with
    Sc.records = Array.map (Array.get scan.Sc.records) (host_record_indices scan);
  }

let month_key d =
  let y, m, _ = Date.to_ymd d in
  (y, m)

let source_priority = function
  | Sc.Censys -> 5
  | Sc.Rapid7 -> 4
  | Sc.Ecosystem -> 3
  | Sc.Pq -> 2
  | Sc.Eff -> 1

(* The one pick rule: fold [fresh] into [picks], the highest-priority
   scan of each month so far. A later scan displaces a month's pick
   only at strictly higher priority, so of equal ones the earliest wins.
   Only a scan that ends up a pick goes through [exclude]; the picks
   it does not displace come back physically unchanged. Chronological. *)
let update_picks scan_of ~exclude picks fresh =
  let best = Hashtbl.create 80 in
  let key x = month_key (scan_of x).Sc.scan_date in
  let priority x = source_priority (scan_of x).Sc.scan_source in
  List.iter (fun x -> Hashtbl.replace best (key x) (x, false)) picks;
  List.iter
    (fun x ->
      match Hashtbl.find_opt best (key x) with
      | Some (prev, _) when priority prev >= priority x -> ()
      | _ -> Hashtbl.replace best (key x) (x, true))
    fresh;
  Hashtbl.fold
    (fun _ (x, is_fresh) acc -> (if is_fresh then exclude x else x) :: acc)
    best []
  |> List.sort (fun a b ->
         Date.compare (scan_of a).Sc.scan_date (scan_of b).Sc.scan_date)

let representative_monthly scans =
  update_picks Fun.id ~exclude:exclude_intermediates [] scans

let extend_monthly_ids picks fresh =
  update_picks
    (fun (s : Scan_ids.t) -> s.Scan_ids.scan)
    ~exclude:(fun (s : Scan_ids.t) ->
      Scan_ids.sub s (host_record_indices s.Scan_ids.scan))
    picks fresh

let representative_monthly_ids ids = extend_monthly_ids [] ids

type stats = {
  host_records : int;
  distinct_certs : int;
  distinct_moduli : int;
}

let stats ids =
  let certs = Id_set.create () and moduli = Id_set.create () in
  let host_records =
    List.fold_left
      (fun acc (s : Scan_ids.t) ->
        Array.iter (Id_set.add certs) s.Scan_ids.cert_ids;
        Array.iter (Id_set.add moduli) s.Scan_ids.modulus_ids;
        acc + Array.length s.Scan_ids.cert_ids)
      0 ids
  in
  {
    host_records;
    distinct_certs = Id_set.cardinal certs;
    distinct_moduli = Id_set.cardinal moduli;
  }
