module Sc = Netsim.Scanner
module Cert_store = X509lite.Cert_store
module Store = Corpus.Store
module BG = Batchgcd.Batch_gcd

exception Unknown_pass of string

(* Concatenate per-id lists in id order. *)
let concat_by_id lists =
  Array.fold_right (fun l acc -> List.rev_append (List.rev l) acc) lists []

(* ------------------------------------------------------------------ *)
(* subject-rules: certificate subject / page-content labeling          *)
(* ------------------------------------------------------------------ *)

(* One rule evaluation per certificate id, with the first page title
   observed alongside that certificate. A certificate carries one key,
   so a modulus's vote for a vendor is the number of host records
   whose certificate carries it and has that label. *)
type subject_state = {
  cert_modulus : int array;  (* per certificate id *)
  cert_records : int array;  (* per certificate id: host records *)
  titles : string option array;  (* per certificate id: first title *)
  labels : Rules.label option array;
      (* per certificate id; also the artifact, so never written after
         the run that grew it *)
  modulus_certs : int list array;  (* per modulus id *)
  votes : Evidence.t list array;  (* per modulus id, by vendor *)
}

let no_subjects =
  {
    cert_modulus = [||];
    cert_records = [||];
    titles = [||];
    labels = [||];
    modulus_certs = [||];
    votes = [||];
  }

(* Vote per (modulus id, vendor): one vote per host record whose
   certificate matched a rule, exactly the tally the majority label
   used. A model id rides along when any voting certificate carries
   one (smallest lexicographically, for determinism). *)
let subject_votes labels cert_records m certs =
  let tally =
    List.fold_left
      (fun acc c ->
        match labels.(c) with
        | None -> acc
        | Some { Rules.vendor; model_id } ->
          let count, model =
            Option.value ~default:(0, None) (List.assoc_opt vendor acc)
          in
          let model =
            match (model, model_id) with
            | None, m -> m
            | Some a, Some m when String.compare m a < 0 -> Some m
            | m, _ -> m
          in
          (vendor, (count + cert_records.(c), model))
          :: List.remove_assoc vendor acc)
      [] certs
  in
  List.map
    (fun (vendor, (count, model)) ->
      Evidence.make ~subject:m ~technique:Evidence.Subject_rule ~vendor
        ?model_id:model ~weight:count ())
    (List.sort (fun (a, _) (b, _) -> String.compare a b) tally)

(* Only the fresh records' votes are added and only fresh certificates
   labelled — except an old certificate that had no page title and
   gains one from a fresh record: it is relabelled (the title may name
   the vendor) and its modulus's votes recounted. *)
let rec subject_step st (ctx : Pass.Ctx.t) (delta : Pass.Delta.t) _attr =
  let certs = ctx.Pass.Ctx.certs and grow = Scan_ids.grow in
  let nc = Cert_store.size certs and n = Store.size ctx.Pass.Ctx.store in
  let cert_modulus = grow st.cert_modulus nc (-1)
  and cert_records = grow st.cert_records nc 0
  and titles = grow st.titles nc None
  and labels = grow st.labels nc None
  and modulus_certs = grow st.modulus_certs n []
  and votes = grow st.votes n [] in
  let dirty = Array.make n false and touched = ref [] in
  let touch m =
    if not dirty.(m) then begin
      dirty.(m) <- true;
      touched := m :: !touched
    end
  in
  let retitled = ref [] in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          let c = s.Scan_ids.cert_ids.(i) and m = s.Scan_ids.modulus_ids.(i) in
          if cert_records.(c) = 0 then begin
            cert_modulus.(c) <- m;
            modulus_certs.(m) <- c :: modulus_certs.(m)
          end;
          cert_records.(c) <- cert_records.(c) + 1;
          (match (titles.(c), r.Sc.page_title) with
          | None, Some _ ->
            titles.(c) <- r.Sc.page_title;
            if c < delta.Pass.Delta.certs_from then retitled := c :: !retitled
          | _ -> ());
          touch m)
        s.Scan_ids.scan.Sc.records)
    delta.Pass.Delta.scans;
  let label c =
    labels.(c) <-
      Rules.of_certificate ?page_title:titles.(c) (Cert_store.get certs c);
    touch cert_modulus.(c)
  in
  for c = delta.Pass.Delta.certs_from to nc - 1 do
    label c
  done;
  List.iter label !retitled;
  List.iter
    (fun m -> votes.(m) <- subject_votes labels cert_records m modulus_certs.(m))
    !touched;
  let st =
    { cert_modulus; cert_records; titles; labels; modulus_certs; votes }
  in
  {
    Pass.evidence = concat_by_id votes;
    artifacts = [ Attribution.Cert_labels labels ];
    resume = Some (subject_step st);
  }

let subject_rules =
  {
    Pass.name = "subject-rules";
    deps = [];
    doc = "certificate subject and page-content rules (Section 3.3.1)";
    rule = Pass.Delta (subject_step no_subjects);
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
  { Pass.evidence; artifacts = [ Attribution.Cliques cliques ]; resume = None }

let ibm_clique =
  {
    Pass.name = "ibm-clique";
    deps = [];
    doc = "both-primes-shared clique detection, IBM RSA-II (Section 4.1)";
    rule = Pass.Full clique_run;
  }

(* ------------------------------------------------------------------ *)
(* bit-errors: non-well-formed modulus triage                          *)
(* ------------------------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* Per finding id: (suspicious, a corpus member sits one bit flip
   away). Whether a modulus is suspicious depends on it alone; a
   neighbour can only appear. So a new finding is judged against the
   whole corpus, and an old suspect without a neighbour only against
   the fresh moduli. *)
let rec bit_errors_step triage (ctx : Pass.Ctx.t) (delta : Pass.Delta.t) _attr
    =
  let bits = ctx.Pass.Ctx.modulus_bits and corpus = ctx.Pass.Ctx.corpus in
  let from = delta.Pass.Delta.moduli_from in
  let fresh = Array.sub corpus from (Array.length corpus - from) in
  let triage =
    Int_map.mapi
      (fun id ((suspicious, near) as v) ->
        if
          suspicious && (not near)
          && Array.exists (Bit_errors.is_bitflip_of corpus.(id)) fresh
        then (true, true)
        else v)
      triage
  in
  let known n = Store.mem ctx.Pass.Ctx.store n in
  let triage =
    List.fold_left
      (fun triage (f : BG.finding) ->
        if Int_map.mem f.BG.index triage then triage
        else
          let suspicious = Bit_errors.suspicious ~bits f.BG.modulus in
          let near =
            suspicious && Bit_errors.bitflip_neighbor ~known f.BG.modulus <> None
          in
          Int_map.add f.BG.index (suspicious, near) triage)
      triage delta.Pass.Delta.findings
  in
  let suspects =
    List.filter
      (fun (f : BG.finding) -> fst (Int_map.find f.BG.index triage))
      ctx.Pass.Ctx.findings
  in
  let near_corpus =
    List.length
      (List.filter
         (fun (f : BG.finding) -> snd (Int_map.find f.BG.index triage))
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
    resume = Some (bit_errors_step triage);
  }

let bit_errors =
  {
    Pass.name = "bit-errors";
    deps = [];
    doc = "non-well-formed modulus triage, set aside (Section 3.3.5)";
    rule = Pass.Delta (bit_errors_step Int_map.empty);
  }

(* ------------------------------------------------------------------ *)
(* mitm-substitution: ISP key substitution                             *)
(* ------------------------------------------------------------------ *)

(* The detector's per-key aggregates fold in the fresh scans' records
   ({!Rimon.add}); only keys that gained records are re-judged. *)
let rec mitm_step tally (ctx : Pass.Ctx.t) (delta : Pass.Delta.t) _attr =
  let tally = Rimon.add ctx.Pass.Ctx.store tally delta.Pass.Delta.scans in
  let detections = Rimon.detections tally in
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
  {
    Pass.evidence;
    artifacts = [ Attribution.Mitm detections ];
    resume = Some (mitm_step tally);
  }

let mitm_substitution =
  {
    Pass.name = "mitm-substitution";
    deps = [];
    doc = "one key at many IPs with broken signatures (Section 3.3.3)";
    rule = Pass.Delta (mitm_step (Rimon.empty ()));
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
  { Pass.evidence; artifacts = [ Attribution.Shared shared ]; resume = None }

let shared_prime =
  {
    Pass.name = "shared-prime";
    deps = [ "subject-rules"; "ibm-clique" ];
    doc = "shared-prime pool extrapolation of known labels (Section 3.3.2)";
    rule = Pass.Full shared_prime_run;
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
  {
    Pass.evidence = [];
    artifacts = [ Attribution.Openssl_table rows ];
    resume = None;
  }

let openssl_fingerprint =
  {
    Pass.name = "openssl-fingerprint";
    deps = [ "subject-rules"; "ibm-clique"; "shared-prime" ];
    doc = "Mironov OpenSSL prime fingerprint per vendor (Table 5)";
    rule = Pass.Full openssl_run;
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

type outcome = {
  attribution : Attribution.t;
  times : (string * float) list;
  results : (string * Pass.result) list;
}

let run ?pool ?only ?parent ctx passes =
  let passes = select ?only passes in
  let waves = schedule passes in
  let attr =
    Attribution.create ~size:(Store.size ctx.Pass.Ctx.store) ()
  in
  (* A delta rule resumes from its parent result when there is one;
     otherwise it runs from the empty parent. *)
  let resumed p =
    Option.bind parent (fun (delta, results) ->
        List.find_map
          (fun (name, (r : Pass.result)) ->
            if String.equal name p.Pass.name then
              Option.map (fun k -> k ctx delta) r.Pass.resume
            else None)
          results)
  in
  let apply p =
    match p.Pass.rule with
    | Pass.Full f -> f ctx attr
    | Pass.Delta start -> (
      match resumed p with
      | Some k -> k attr
      | None -> start ctx (Pass.Delta.everything ctx) attr)
  in
  let times = ref [] and results = ref [] in
  List.iter
    (fun wave ->
      let exec p =
        let t0 = Unix.gettimeofday () in
        let r = apply p in
        (p, r, Unix.gettimeofday () -. t0)
      in
      (* Concurrency is per wave: the merge below is sequential and in
         registration order, so the table (and everything derived from
         it) is identical at any pool size. *)
      let ran =
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
          times := (p.Pass.name, dt) :: !times;
          results := (p.Pass.name, r) :: !results)
        ran)
    waves;
  { attribution = attr; times = List.rev !times; results = List.rev !results }
