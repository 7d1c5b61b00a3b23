module Sc = Netsim.Scanner

type t = {
  scan : Sc.scan;
  cert_ids : int array;
  modulus_ids : int array;
}

let intern certs store (scan : Sc.scan) =
  let records = scan.Sc.records in
  {
    scan;
    cert_ids =
      Array.map
        (fun (r : Sc.host_record) -> X509lite.Cert_store.intern certs r.Sc.cert)
        records;
    modulus_ids =
      Array.map
        (fun (r : Sc.host_record) ->
          Corpus.Store.intern store
            r.Sc.cert.X509lite.Certificate.public_key.Rsa.Keypair.n)
        records;
  }

let sub t keep =
  let pick a = Array.map (Array.get a) keep in
  {
    scan = { t.scan with Sc.records = pick t.scan.Sc.records };
    cert_ids = pick t.cert_ids;
    modulus_ids = pick t.modulus_ids;
  }

let grow a n fill = Array.append a (Array.make (n - Array.length a) fill)
