(* Shared simulated worlds for the test suite. Built lazily once and
   reused by the netsim, fingerprint, analysis and pipeline tests. *)

let small_config =
  {
    Netsim.World.default_config with
    Netsim.World.seed = "test-world";
    scale = 0.05;
  }

let small = lazy (Netsim.World.build small_config)
let small_scans = lazy (Netsim.Scanner.run_all (Lazy.force small))
let small_pipeline = lazy (Weakkeys.Pipeline.of_world (Lazy.force small))

let gen_of seed =
  let st = Random.State.make [| seed |] in
  fun n -> String.init n (fun _ -> Char.chr (Random.State.int st 256))

(* Every attribution artifact, one line per entry in the artifact's own
   order (certificate labels, by id, sorted by their fingerprint in
   [certs]), with values in place of ids: "absent" when the owning pass
   did not run. *)
let artifact_lines certs attr =
  let module A = Fingerprint.Attribution in
  let opt = Option.value ~default:"-" in
  let hex = Bignum.Nat.to_hex in
  let sorted_hexes ns =
    String.concat "," (List.map hex (List.sort Bignum.Nat.compare ns))
  in
  let section f = function None -> [ "absent" ] | Some x -> f x in
  [
    ( "certificate labels",
      section
        (fun labels ->
          Array.to_list
            (Array.mapi
               (fun c l ->
                 X509lite.Cert_store.fingerprint certs c
                 ^ "="
                 ^
                 match l with
                 | None -> "-"
                 | Some { Fingerprint.Rules.vendor; model_id } ->
                   vendor ^ "/" ^ opt model_id)
               labels)
          |> List.sort String.compare)
        (A.cert_labels attr) );
    ( "cliques",
      section
        (List.map (fun (c : Fingerprint.Ibm_clique.clique) ->
             sorted_hexes c.Fingerprint.Ibm_clique.primes
             ^ " | "
             ^ sorted_hexes c.Fingerprint.Ibm_clique.moduli))
        (A.cliques attr) );
    ( "shared-prime pools",
      section
        (fun s ->
          List.map
            (fun ((f : Fingerprint.Factored.t), l) ->
              Printf.sprintf "%s=%s*%s %s" (hex f.Fingerprint.Factored.modulus)
                (hex f.Fingerprint.Factored.p) (hex f.Fingerprint.Factored.q)
                (opt l))
            (Fingerprint.Shared_prime.entries s))
        (A.shared attr) );
    ( "MITM detections",
      section
        (List.map (fun (d : Fingerprint.Rimon.detection) ->
             Printf.sprintf "%s ips=%s subjects=%d invalid=%h"
               (hex d.Fingerprint.Rimon.modulus)
               (String.concat ","
                  (List.map Netsim.Ipv4.to_string d.Fingerprint.Rimon.ips))
               d.Fingerprint.Rimon.distinct_subjects
               d.Fingerprint.Rimon.invalid_signature_fraction))
        (A.mitm attr) );
    ( "bit-error triage",
      section
        (fun (suspects, near) ->
          Printf.sprintf "near=%d" near :: List.map hex suspects)
        (A.bit_error_triage attr) );
    ( "OpenSSL table",
      section
        (List.map (fun (v, verdict, n) ->
             Printf.sprintf "%s %s %d" v
               (Fingerprint.Openssl_fp.verdict_to_string verdict)
               n))
        (A.openssl_table attr) );
  ]
