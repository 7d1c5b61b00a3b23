module Sc = Netsim.Scanner
module Cert_store = X509lite.Cert_store
module Store = Corpus.Store
module BG = Batchgcd.Batch_gcd

exception Unknown_pass of string

(* ------------------------------------------------------------------ *)
(* subject-rules: certificate subject / page-content labeling          *)
(* ------------------------------------------------------------------ *)

(* One rule evaluation per certificate id, with the first page title
   observed alongside that certificate. Ids are in first-seen order,
   so the fingerprint-keyed artifact (the form checkpoints store) is
   filled in the order the records first show each certificate. *)
let cert_labels (ctx : Pass.Ctx.t) =
  let certs = ctx.Pass.Ctx.certs in
  let titles = Array.make (Cert_store.size certs) None in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          let c = s.Scan_ids.cert_ids.(i) in
          if titles.(c) = None then titles.(c) <- r.Sc.page_title)
        s.Scan_ids.scan.Sc.records)
    ctx.Pass.Ctx.scans;
  let labels =
    Array.mapi
      (fun c page_title ->
        Rules.of_certificate ?page_title (Cert_store.get certs c))
      titles
  in
  let by_fingerprint = Hashtbl.create (Array.length labels) in
  Array.iteri
    (fun c label ->
      Hashtbl.replace by_fingerprint (Cert_store.fingerprint certs c) label)
    labels;
  (labels, by_fingerprint)

let subject_run (ctx : Pass.Ctx.t) _attr =
  let labels, by_fingerprint = cert_labels ctx in
  (* Vote per (modulus id, vendor): one vote per host record whose
     certificate matched a rule, exactly the tally the majority label
     used. A model id rides along when any voting certificate carries
     one (smallest lexicographically, for determinism). *)
  let votes : (int, (string, int * string option) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 4096
  in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i c ->
          match labels.(c) with
          | Some { Rules.vendor; model_id } ->
            let id = s.Scan_ids.modulus_ids.(i) in
            let tally =
              match Hashtbl.find_opt votes id with
              | Some t -> t
              | None ->
                let t = Hashtbl.create 4 in
                Hashtbl.replace votes id t;
                t
            in
            let count, model =
              Option.value ~default:(0, None) (Hashtbl.find_opt tally vendor)
            in
            let model =
              match (model, model_id) with
              | None, m -> m
              | Some a, Some m when String.compare m a < 0 -> Some m
              | m, _ -> m
            in
            Hashtbl.replace tally vendor (count + 1, model)
          | None -> ())
        s.Scan_ids.cert_ids)
    ctx.Pass.Ctx.scans;
  let evidence =
    Hashtbl.fold
      (fun id tally acc ->
        Hashtbl.fold
          (fun vendor (count, model) acc ->
            Evidence.make ~subject:id ~technique:Evidence.Subject_rule ~vendor
              ?model_id:model ~weight:count ()
            :: acc)
          tally acc)
      votes []
  in
  let evidence =
    List.sort
      (fun (a : Evidence.t) (b : Evidence.t) ->
        match Int.compare a.Evidence.subject b.Evidence.subject with
        | 0 ->
          String.compare
            (Option.value ~default:"" a.Evidence.vendor)
            (Option.value ~default:"" b.Evidence.vendor)
        | c -> c)
      evidence
  in
  { Pass.evidence; artifacts = [ Attribution.Cert_labels by_fingerprint ] }

let subject_rules =
  {
    Pass.name = "subject-rules";
    deps = [];
    doc = "certificate subject and page-content rules (Section 3.3.1)";
    run = subject_run;
  }

(* ------------------------------------------------------------------ *)
(* ibm-clique: tiny-prime-pool detection                               *)
(* ------------------------------------------------------------------ *)

let clique_run (ctx : Pass.Ctx.t) _attr =
  let cliques = Ibm_clique.detect ctx.Pass.Ctx.factored in
  (* Clique membership implies the nine-prime implementation — prior
     knowledge from the 2012 study: the tiny-pool generator is the
     IBM remote management card. *)
  let evidence =
    List.concat_map
      (fun (c : Ibm_clique.clique) ->
        let ids =
          List.filter_map (Store.find ctx.Pass.Ctx.store)
            c.Ibm_clique.moduli
        in
        List.map
          (fun id ->
            let witnesses = List.filter (fun w -> w <> id) ids in
            Evidence.make ~subject:id ~technique:Evidence.Prime_clique
              ~vendor:"IBM" ~confidence:0.95 ~witnesses ())
          ids)
      cliques
  in
  { Pass.evidence; artifacts = [ Attribution.Cliques cliques ] }

let ibm_clique =
  {
    Pass.name = "ibm-clique";
    deps = [];
    doc = "both-primes-shared clique detection, IBM RSA-II (Section 4.1)";
    run = clique_run;
  }

(* ------------------------------------------------------------------ *)
(* bit-errors: non-well-formed modulus triage                          *)
(* ------------------------------------------------------------------ *)

let bit_errors_run (ctx : Pass.Ctx.t) _attr =
  let bits = ctx.Pass.Ctx.modulus_bits in
  let suspects =
    List.filter
      (fun (f : BG.finding) -> Bit_errors.suspicious ~bits f.BG.modulus)
      ctx.Pass.Ctx.findings
  in
  let known n = Store.mem ctx.Pass.Ctx.store n in
  let near_corpus =
    List.length
      (List.filter
         (fun (f : BG.finding) ->
           Bit_errors.bitflip_neighbor ~known f.BG.modulus <> None)
         suspects)
  in
  let evidence =
    List.map
      (fun (f : BG.finding) ->
        (* No vendor claim: the observation excludes the modulus from
           implementation attribution rather than making one. *)
        Evidence.make ~subject:f.BG.index ~technique:Evidence.Bit_error
          ~confidence:0.9 ())
      suspects
  in
  {
    Pass.evidence;
    artifacts =
      [
        Attribution.Bit_error_triage
          {
            suspects = List.map (fun (f : BG.finding) -> f.BG.modulus) suspects;
            near_corpus;
          };
      ];
  }

let bit_errors =
  {
    Pass.name = "bit-errors";
    deps = [];
    doc = "non-well-formed modulus triage, set aside (Section 3.3.5)";
    run = bit_errors_run;
  }

(* ------------------------------------------------------------------ *)
(* mitm-substitution: ISP key substitution                             *)
(* ------------------------------------------------------------------ *)

let mitm_run (ctx : Pass.Ctx.t) _attr =
  let detections =
    Rimon.detect ctx.Pass.Ctx.store ctx.Pass.Ctx.scans
  in
  let evidence =
    List.filter_map
      (fun (d : Rimon.detection) ->
        match Store.find ctx.Pass.Ctx.store d.Rimon.modulus with
        | None -> None
        | Some id ->
          Some
            (Evidence.make ~subject:id ~technique:Evidence.Mitm_substitution
               ~confidence:d.Rimon.invalid_signature_fraction
               ~weight:(List.length d.Rimon.ips) ()))
      detections
  in
  { Pass.evidence; artifacts = [ Attribution.Mitm detections ] }

let mitm_substitution =
  {
    Pass.name = "mitm-substitution";
    deps = [];
    doc = "one key at many IPs with broken signatures (Section 3.3.3)";
    run = mitm_run;
  }

(* ------------------------------------------------------------------ *)
(* shared-prime: pool extrapolation                                    *)
(* ------------------------------------------------------------------ *)

let shared_prime_run (ctx : Pass.Ctx.t) attr =
  (* The pools are seeded with the labels the stronger techniques
     assigned — subject rules first, clique membership second — which
     is why this pass declares both as deps. *)
  let label_of id =
    Attribution.vendor_of
      ~use:[ Evidence.Subject_rule; Evidence.Prime_clique ]
      attr id
  in
  let entries =
    List.map
      (fun (f : Factored.t) ->
        let label =
          match Store.find ctx.Pass.Ctx.store f.Factored.modulus with
          | None -> None
          | Some id -> label_of id
        in
        (f, label))
      ctx.Pass.Ctx.factored
  in
  let shared = Shared_prime.build entries in
  (* Witness map: prime -> (vendor, donor id) for every labeled entry,
     so each extrapolated claim can cite the moduli whose label it
     inherits. *)
  let primes = Store.create ~size:1024 () in
  let donors : (int, (string * int) list) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun ((f : Factored.t), label) ->
      match label with
      | None -> ()
      | Some vendor -> (
        match Store.find ctx.Pass.Ctx.store f.Factored.modulus with
        | None -> ()
        | Some id ->
          List.iter
            (fun p ->
              let pid = Store.intern primes p in
              let prev = Option.value ~default:[] (Hashtbl.find_opt donors pid) in
              Hashtbl.replace donors pid ((vendor, id) :: prev))
            [ f.Factored.p; f.Factored.q ]))
    entries;
  let evidence =
    List.filter_map
      (fun (f : Factored.t) ->
        match Shared_prime.label_modulus shared f with
        | None -> None
        | Some vendor -> (
          match Store.find ctx.Pass.Ctx.store f.Factored.modulus with
          | None -> None
          | Some id ->
            let witnesses =
              List.concat_map
                (fun p ->
                  match Store.find primes p with
                  | None -> []
                  | Some pid ->
                    List.filter_map
                      (fun (v, w) ->
                        if String.equal v vendor && w <> id then Some w
                        else None)
                      (Option.value ~default:[]
                         (Hashtbl.find_opt donors pid)))
                [ f.Factored.p; f.Factored.q ]
            in
            let witnesses = List.sort_uniq Int.compare witnesses in
            Some
              (Evidence.make ~subject:id ~technique:Evidence.Shared_prime
                 ~vendor ~confidence:0.9 ~witnesses ())))
      ctx.Pass.Ctx.factored
  in
  { Pass.evidence; artifacts = [ Attribution.Shared shared ] }

let shared_prime =
  {
    Pass.name = "shared-prime";
    deps = [ "subject-rules"; "ibm-clique" ];
    doc = "shared-prime pool extrapolation of known labels (Section 3.3.2)";
    run = shared_prime_run;
  }

(* ------------------------------------------------------------------ *)
(* openssl-fingerprint: prime-structure classification                 *)
(* ------------------------------------------------------------------ *)

let openssl_run (ctx : Pass.Ctx.t) attr =
  (* Classify each vendor's prime pool under the final merged labels,
     hence the dep on every labeling pass. *)
  let entries =
    List.map
      (fun (f : Factored.t) ->
        let label =
          match Store.find ctx.Pass.Ctx.store f.Factored.modulus with
          | None -> None
          | Some id -> Attribution.vendor_of attr id
        in
        (f, label))
      ctx.Pass.Ctx.factored
  in
  let rows = Openssl_fp.classify_vendors entries in
  { Pass.evidence = []; artifacts = [ Attribution.Openssl_table rows ] }

let openssl_fingerprint =
  {
    Pass.name = "openssl-fingerprint";
    deps = [ "subject-rules"; "ibm-clique"; "shared-prime" ];
    doc = "Mironov OpenSSL prime fingerprint per vendor (Table 5)";
    run = openssl_run;
  }

(* ------------------------------------------------------------------ *)
(* Registry + scheduler                                                *)
(* ------------------------------------------------------------------ *)

let builtin =
  [
    subject_rules; ibm_clique; bit_errors; mitm_substitution; shared_prime;
    openssl_fingerprint;
  ]

let find name =
  List.find_opt (fun p -> String.equal p.Pass.name name) builtin

let select ?only passes =
  match only with
  | None -> passes
  | Some names ->
    let lookup name =
      match List.find_opt (fun p -> String.equal p.Pass.name name) passes with
      | Some p -> p
      | None -> raise (Unknown_pass name)
    in
    let wanted = Hashtbl.create 8 in
    let rec require name =
      if not (Hashtbl.mem wanted name) then begin
        let p = lookup name in
        Hashtbl.replace wanted name ();
        List.iter require p.Pass.deps
      end
    in
    List.iter require names;
    List.filter (fun p -> Hashtbl.mem wanted p.Pass.name) passes

let schedule passes =
  let names = List.map (fun p -> p.Pass.name) passes in
  List.iter
    (fun p ->
      List.iter
        (fun d ->
          if not (List.exists (String.equal d) names) then
            raise (Unknown_pass d))
        p.Pass.deps)
    passes;
  let placed = Hashtbl.create 8 in
  let rec waves remaining =
    if remaining = [] then []
    else begin
      let ready, blocked =
        List.partition
          (fun p -> List.for_all (Hashtbl.mem placed) p.Pass.deps)
          remaining
      in
      if ready = [] then
        invalid_arg "Registry.schedule: dependency cycle among passes";
      List.iter (fun p -> Hashtbl.replace placed p.Pass.name ()) ready;
      ready :: waves blocked
    end
  in
  waves passes

let run ?pool ?only ctx passes =
  let passes = select ?only passes in
  let waves = schedule passes in
  let attr =
    Attribution.create ~size:(Store.size ctx.Pass.Ctx.store) ()
  in
  let times = ref [] in
  List.iter
    (fun wave ->
      let exec p =
        let t0 = Unix.gettimeofday () in
        let r = p.Pass.run ctx attr in
        (p, r, Unix.gettimeofday () -. t0)
      in
      (* Concurrency is per wave: the merge below is sequential and in
         registration order, so the table (and everything derived from
         it) is identical at any pool size. *)
      let results =
        match pool with
        | Some pool when Parallel.Pool.size pool > 1 && List.length wave > 1
          ->
          Array.to_list (Parallel.Pool.map ~pool exec (Array.of_list wave))
        | _ -> List.map exec wave
      in
      List.iter
        (fun (p, (r : Pass.result), dt) ->
          List.iter (Attribution.add attr) r.Pass.evidence;
          List.iter (Attribution.add_artifact attr) r.Pass.artifacts;
          times := (p.Pass.name, dt) :: !times)
        results)
    waves;
  (attr, List.rev !times)
