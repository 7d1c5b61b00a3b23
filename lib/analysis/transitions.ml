module Sc = Netsim.Scanner
module Date = X509lite.Date
module Scan_ids = Fingerprint.Scan_ids

type summary = {
  ips_ever : int;
  ips_vulnerable_ever : int;
  to_ok : int;
  to_vulnerable : int;
  flapping : int;
}

let for_key ~vulnerable keyed key =
  (* ip -> chronological vulnerability observations *)
  let per_ip : (Netsim.Ipv4.t, bool list) Hashtbl.t = Hashtbl.create 1024 in
  let date (k : Timeseries.keyed) = k.Timeseries.ids.Scan_ids.scan.Sc.scan_date in
  List.iter
    (fun (k : Timeseries.keyed) ->
      let ids = k.Timeseries.ids in
      Array.iteri
        (fun i (r : Sc.host_record) ->
          if (not r.Sc.is_intermediate) && k.Timeseries.keys.(i) = key then begin
            let v = Corpus.Id_set.mem vulnerable ids.Scan_ids.modulus_ids.(i) in
            Hashtbl.replace per_ip r.Sc.ip
              (v :: Option.value ~default:[] (Hashtbl.find_opt per_ip r.Sc.ip))
          end)
        ids.Scan_ids.scan.Sc.records)
    (List.sort (fun a b -> Date.compare (date a) (date b)) keyed);
  let ips_ever = ref 0
  and vuln_ever = ref 0
  and to_ok = ref 0
  and to_vuln = ref 0
  and flapping = ref 0 in
  Hashtbl.iter
    (fun _ip observations ->
      let obs = List.rev observations in
      incr ips_ever;
      if List.exists Fun.id obs then incr vuln_ever;
      (* Collapse runs, then count state changes. *)
      let rec changes prev acc = function
        | [] -> acc
        | v :: rest ->
          if Some v = prev then changes prev acc rest
          else changes (Some v)
              (match prev with None -> acc | Some p -> (p, v) :: acc)
              rest
      in
      match List.rev (changes None [] obs) with
      | [] -> ()
      | [ (true, false) ] -> incr to_ok
      | [ (false, true) ] -> incr to_vuln
      | _ :: _ :: _ -> incr flapping
      | [ _ ] -> ())
    per_ip;
  {
    ips_ever = !ips_ever;
    ips_vulnerable_ever = !vuln_ever;
    to_ok = !to_ok;
    to_vulnerable = !to_vuln;
    flapping = !flapping;
  }
