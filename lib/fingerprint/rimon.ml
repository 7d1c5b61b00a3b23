module N = Bignum.Nat
module Sc = Netsim.Scanner
module Cert = X509lite.Certificate
module Ips = Set.Make (Int)
module Found = Map.Make (Int)

type detection = {
  modulus : N.t;
  ips : Netsim.Ipv4.t list;
  distinct_subjects : int;
  invalid_signature_fraction : float;
}

(* What the detector knows of a certificate: nothing yet, its value
   (it has been seen), or its subject and whether its signature
   verifies under its own key — computed once per certificate, and
   only for certificates of a key that reaches [min_ips] addresses. *)
type cert_info = Unseen | Seen of Cert.t | Checked of string * bool

(* Per-modulus-id aggregates over every non-intermediate record folded
   in so far, per-certificate-id facts, and the current detections.
   [add] copies every array before writing, so an older tally stays
   valid. *)
type tally = {
  min_ips : int;
  records : int array;  (* per modulus id *)
  ips : Ips.t array;  (* per modulus id: distinct addresses *)
  certs : int list array;  (* per modulus id: distinct certificate ids *)
  cert_records : int array;  (* per certificate id *)
  cert_info : cert_info array;  (* per certificate id *)
  found : detection Found.t;  (* by modulus id *)
}

let empty ?(min_ips = 10) () =
  {
    min_ips;
    records = [||];
    ips = [||];
    certs = [||];
    cert_records = [||];
    cert_info = [||];
    found = Found.empty;
  }

let checked info c =
  match info.(c) with
  | Checked (subject, valid) -> (subject, valid)
  | Seen cert ->
    (* A substituted key cannot verify the original signature. *)
    let subject = X509lite.Dn.to_string cert.Cert.subject
    and valid = Cert.verify_signature cert cert.Cert.public_key in
    info.(c) <- Checked (subject, valid);
    (subject, valid)
  | Unseen -> invalid_arg "Rimon: certificate never seen"

let add store t scans =
  let grow = Scan_ids.grow in
  let n = Corpus.Store.size store in
  let nc =
    List.fold_left
      (fun acc (s : Scan_ids.t) -> Array.fold_left Int.max acc s.Scan_ids.cert_ids)
      (Array.length t.cert_records - 1)
      scans
    + 1
  in
  let records = grow t.records n 0
  and ips = grow t.ips n Ips.empty
  and certs = grow t.certs n []
  and cert_records = grow t.cert_records nc 0
  and info = grow t.cert_info nc Unseen in
  let dirty = Array.make n false and touched = ref [] in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          if not r.Sc.is_intermediate then begin
            let m = s.Scan_ids.modulus_ids.(i) and c = s.Scan_ids.cert_ids.(i) in
            records.(m) <- records.(m) + 1;
            ips.(m) <- Ips.add r.Sc.ip ips.(m);
            if cert_records.(c) = 0 then begin
              certs.(m) <- c :: certs.(m);
              match info.(c) with
              | Unseen -> info.(c) <- Seen r.Sc.cert
              | Seen _ | Checked _ -> ()
            end;
            cert_records.(c) <- cert_records.(c) + 1;
            if not dirty.(m) then begin
              dirty.(m) <- true;
              touched := m :: !touched
            end
          end)
        s.Scan_ids.scan.Sc.records)
    scans;
  (* Only a key that gained records can change its verdict; and only
     one with [min_ips] records can reach [min_ips] addresses. *)
  let verdict m =
    let ips = ips.(m) in
    if Ips.cardinal ips < t.min_ips then None
    else begin
      let facts = List.map (checked info) certs.(m) in
      let subjects = List.sort_uniq String.compare (List.map fst facts) in
      if List.length subjects < 2 then None
      else begin
        let invalid =
          List.fold_left2
            (fun acc c (_, valid) -> if valid then acc else acc + cert_records.(c))
            0 certs.(m) facts
        in
        let frac = Float.of_int invalid /. Float.of_int records.(m) in
        if frac > 0.5 then
          Some
            {
              modulus = Corpus.Store.get store m;
              ips = Ips.elements ips;
              distinct_subjects = List.length subjects;
              invalid_signature_fraction = frac;
            }
        else None
      end
    end
  in
  let found =
    List.fold_left
      (fun found m ->
        if records.(m) < t.min_ips then found
        else
          match verdict m with
          | Some d -> Found.add m d found
          | None -> Found.remove m found)
      t.found !touched
  in
  {
    min_ips = t.min_ips;
    records;
    ips;
    certs;
    cert_records;
    cert_info = info;
    found;
  }

let detections t =
  List.stable_sort
    (fun (a : detection) (b : detection) ->
      Int.compare (List.length b.ips) (List.length a.ips))
    (List.map snd (Found.bindings t.found))

let detect ?min_ips store scans =
  detections (add store (empty ?min_ips ()) scans)
