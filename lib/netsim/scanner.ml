module Date = X509lite.Date
module Cert = X509lite.Certificate
module N = Bignum.Nat
module K = Rsa.Keypair

type source = Eff | Pq | Ecosystem | Rapid7 | Censys

let source_name = function
  | Eff -> "EFF"
  | Pq -> "P&Q"
  | Ecosystem -> "Ecosystem"
  | Rapid7 -> "Rapid7"
  | Censys -> "Censys"

let all_sources = [ Eff; Pq; Ecosystem; Rapid7; Censys ]

let coverage = function
  | Eff -> 0.85
  | Pq -> 0.90
  | Ecosystem -> 0.97
  | Rapid7 -> 0.94
  | Censys -> 0.99

let monthly y0 m0 y1 m1 =
  let rec go d acc =
    if Date.compare d (Date.of_ymd y1 m1 16) > 0 then List.rev acc
    else go (Date.add_months d 1) (d :: acc)
  in
  go (Date.of_ymd y0 m0 15) []

let schedule = function
  | Eff -> [ Date.of_ymd 2010 7 15; Date.of_ymd 2010 12 15 ]
  | Pq -> [ Date.of_ymd 2011 10 15 ]
  | Ecosystem -> monthly 2012 6 2014 1
  | Rapid7 -> monthly 2013 10 2015 5
  | Censys -> monthly 2015 7 2016 5

let full_schedule =
  List.concat_map (fun s -> List.map (fun d -> (s, d)) (schedule s)) all_sources
  |> List.sort (fun (_, a) (_, b) -> Date.compare a b)

type host_record = {
  source : source;
  date : Date.t;
  ip : Ipv4.t;
  cert : Cert.t;
  is_intermediate : bool;
  page_title : string option;
}

type scan = { scan_source : source; scan_date : Date.t; records : host_record array }

(* Flip one deterministic bit of the modulus, as a storage or
   transmission error would (Section 3.3.5). The signature is left
   untouched, so it no longer verifies — like the paper's certificates
   that sat one bit away from a valid one. *)
let corrupt_modulus key cert =
  let n = cert.Cert.public_key.K.n in
  let bit = Det.int (key ^ "/bitpos") (Stdlib.max 1 (N.num_bits n - 2)) in
  let flipped =
    if N.testbit n bit then N.sub n (N.shift_left N.one bit)
    else N.add n (N.shift_left N.one bit)
  in
  {
    cert with
    Cert.public_key = { cert.Cert.public_key with K.n = flipped };
  }

let run_scan ?(bit_error_rate = 1e-5) world source date =
  let cfg = World.config world in
  let cov = coverage source in
  let sname = source_name source in
  let ds = Date.to_string date in
  let records = ref [] in
  let ca_certificate = World.ca_cert world in
  Array.iter
    (fun d ->
      if World.alive d date then begin
        let seen_key =
          Printf.sprintf "%s/%s/%s/%s/seen" cfg.World.seed sname ds
            d.World.dev_id
        in
        if Det.float seen_key < cov then begin
          match World.cert_at d date with
          | None -> ()
          | Some cert ->
            let ip = World.ip_at d date in
            let cert =
              if World.is_rimon_customer world d then
                Cert.substitute_public_key cert (World.rimon_public world)
              else cert
            in
            let cert =
              if Det.float (seen_key ^ "/biterr") < bit_error_rate then
                corrupt_modulus (seen_key ^ "/biterr") cert
              else cert
            in
            records :=
              {
                source;
                date;
                ip;
                cert;
                is_intermediate = false;
                page_title = d.World.model.Device_model.content_hint;
              }
              :: !records;
            (* Rapid7 reported issuer certificates as bare records at
               the same address, without chaining them. *)
            if
              source = Rapid7
              && not (X509lite.Dn.equal cert.Cert.issuer cert.Cert.subject)
            then
              records :=
                {
                  source;
                  date;
                  ip;
                  cert = ca_certificate;
                  is_intermediate = true;
                  page_title = None;
                }
                :: !records
        end
      end)
    (World.devices world);
  { scan_source = source; scan_date = date; records = Array.of_list !records }

let run_all ?bit_error_rate world =
  List.map
    (fun (s, d) -> run_scan ?bit_error_rate world s d)
    full_schedule

(* ------------------------------------------------------------------ *)
(* Protocol snapshots (Table 4)                                        *)
(* ------------------------------------------------------------------ *)

type protocol = Https | Ssh | Pop3s | Imaps | Smtps

let protocol_name = function
  | Https -> "HTTPS"
  | Ssh -> "SSH"
  | Pop3s -> "POP3S"
  | Imaps -> "IMAPS"
  | Smtps -> "SMTPS"

type protocol_snapshot = {
  protocol : protocol;
  snap_date : Date.t;
  total_hosts : int;
  rsa_hosts : int;
  rsa_moduli : N.t array;
}

(* Mail populations are healthy hosted services: unique keys drawn
   from one stream, sized relative to the device world. *)
let mail_population world protocol frac =
  let cfg = World.config world in
  let base =
    Array.fold_left
      (fun acc d ->
        if d.World.model.Device_model.id = "generic-web" then acc + 1 else acc)
      0 (World.devices world)
  in
  let n = Stdlib.max 1 (int_of_float (Float.of_int base *. frac)) in
  let gen =
    Det.gen_fn
      (Printf.sprintf "%s/mail/%s" cfg.World.seed (protocol_name protocol))
  in
  Array.init n (fun _ ->
      (K.generate ~style:K.Plain ~gen ~bits:cfg.World.modulus_bits ()).K.pub.K.n)

(* Five independent jobs on the pool. The mail populations are nearly
   all the cost (one keypair per host); each keeps its own DRBG
   stream, so the keys do not depend on scheduling. They go first so
   the longest jobs start first. *)
let protocol_snapshots ?pool world =
  let https_date = Date.of_ymd 2016 4 11 in
  let mail_date = Date.of_ymd 2016 4 25 in
  let https () =
    let moduli = ref [] and total = ref 0 in
    Array.iter
      (fun d ->
        if World.alive d https_date then begin
          incr total;
          match World.cert_at d https_date with
          | Some c -> moduli := c.Cert.public_key.K.n :: !moduli
          | None -> ()
        end)
      (World.devices world);
    {
      protocol = Https;
      snap_date = https_date;
      total_hosts = !total;
      rsa_hosts = List.length !moduli;
      rsa_moduli = Array.of_list !moduli;
    }
  in
  let ssh () =
    let moduli = ref [] and total = ref 0 in
    Array.iter
      (fun d ->
        if World.alive d World.ssh_snapshot_date then
          match d.World.ssh_key with
          | Some k ->
            incr total;
            (* A fraction of SSH hosts present non-RSA (DSA/ECDSA)
               keys; they count as hosts but contribute no modulus. *)
            if
              Det.float (d.World.dev_id ^ "/ssh-rsa") < 0.6
            then moduli := k.K.pub.K.n :: !moduli
          | None -> ())
      (World.devices world);
    {
      protocol = Ssh;
      snap_date = World.ssh_snapshot_date;
      total_hosts = !total;
      rsa_hosts = List.length !moduli;
      rsa_moduli = Array.of_list !moduli;
    }
  in
  let mail protocol frac () =
    let moduli = mail_population world protocol frac in
    {
      protocol;
      snap_date = mail_date;
      total_hosts = Array.length moduli;
      rsa_hosts = Array.length moduli;
      rsa_moduli = moduli;
    }
  in
  match
    Parallel.Pool.map ?pool
      (fun job -> job ())
      [| mail Pop3s 0.12; mail Imaps 0.12; mail Smtps 0.09; https; ssh |]
  with
  | [| pop3s; imaps; smtps; https; ssh |] -> [ https; ssh; pop3s; imaps; smtps ]
  | _ -> assert false
