module N = Bignum.Nat
module Sc = Netsim.Scanner
module BG = Batchgcd.Batch_gcd
module Inc = Batchgcd.Incremental
module Sh = Batchgcd.Sharded
module Io = Corpus.Io
module Fp = Fingerprint.Factored
module Evidence = Fingerprint.Evidence
module Attribution = Fingerprint.Attribution
module FPass = Fingerprint.Pass
module Registry = Fingerprint.Registry
module Store = Corpus.Store
module Id_set = Corpus.Id_set
module Cert_store = X509lite.Cert_store
module Scan_ids = Fingerprint.Scan_ids
module Dataset = Analysis.Dataset
module Ts = Analysis.Timeseries

(* The cached GCD artifact: the segment forest, or the same forest cut
   at a shard stride when the run asked for [shards]. Both carry the
   forest and the findings; extend continues in whichever mode the
   state is in. The gcd_* functions below are the only code outside
   lib/batchgcd that tells the two apart. *)
type gcd_state = Flat of Inc.t | Sharded of Sh.t

(* The stride [gcd_create] cuts an [n]-modulus corpus at, if any. *)
let gcd_stride ?shards n =
  Option.map (fun shards -> Sh.stride_for ~shards n) shards

let gcd_create ~pool ?shards corpus =
  match gcd_stride ?shards (Array.length corpus) with
  | None -> Flat (Inc.create ~pool corpus)
  | Some stride -> Sharded (Sh.create ~pool ~stride corpus)

let gcd_extend ~pool g fresh =
  match g with
  | Flat inc -> Flat (Inc.extend ~pool inc fresh)
  | Sharded sh -> Sharded (Sh.extend ~pool sh fresh)

let gcd_findings = function
  | Flat inc -> Inc.findings inc
  | Sharded sh -> Sh.findings sh

let gcd_corpus = function
  | Flat inc -> Inc.corpus inc
  | Sharded sh -> Sh.corpus sh

let gcd_corpus_size = function
  | Flat inc -> Inc.corpus_size inc
  | Sharded sh -> Sh.corpus_size sh

let gcd_segment_count = function
  | Flat inc -> Inc.segment_count inc
  | Sharded sh -> Sh.segment_count sh

let save_gcd oc = function
  | Flat inc ->
    Io.write_string oc "flat";
    Inc.save oc inc
  | Sharded sh ->
    Io.write_string oc "sharded";
    Sh.save oc sh

let load_gcd ic =
  match Io.read_string ic with
  | "flat" -> Flat (Inc.load ic)
  | "sharded" -> Sharded (Sh.load ic)
  | _ -> raise (Io.Corrupt "unknown GCD artifact kind")

type view = {
  vendors : Ts.table;
  models : Ts.table;
  by_vendor : Ts.keyed list;
}

type t = {
  world : Netsim.World.t;
  scans : Sc.scan list;
  monthly : Sc.scan list;
  protocol_snapshots : Sc.protocol_snapshot list;
  https_moduli : N.t array;
  https_ids : Id_set.t;
  store : Store.t;
  certs : Cert_store.t;
  scan_ids : Scan_ids.t list;
  monthly_ids : Scan_ids.t list;
  corpus : N.t array;
  gcd : gcd_state;
  findings : BG.finding list;
  factored : Fp.t list;
  unrecovered : N.t list;
  attribution : Attribution.t;
  pass_results : (string * FPass.result) list;
  vuln_index : Id_set.t;
  factored_index : Fp.t option array;
  view : view Lazy.t;
  timings : Stage.timing list;
}

let majority_vendor = Attribution.majority_vendor

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

(* The scans' HTTPS moduli not yet in [seen], in first-observation
   order; each is added to [seen]. *)
let https_moduli_of store seen scan_ids =
  let firsts = ref [] in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iter
        (fun id ->
          if not (Id_set.mem seen id) then begin
            Id_set.add seen id;
            firsts := id :: !firsts
          end)
        s.Scan_ids.modulus_ids)
    scan_ids;
  Array.of_list (List.rev_map (Store.get store) !firsts)

(* Checkpoint key: the GCD artifact is valid only for the exact corpus
   (content and order) and driver parameters that produced it. *)
let corpus_key corpus tag =
  let buf = Buffer.create 65536 in
  Array.iter
    (fun m ->
      let b = N.to_bytes_be m in
      Buffer.add_string buf (string_of_int (String.length b));
      Buffer.add_char buf ':';
      Buffer.add_string buf b)
    corpus;
  Buffer.add_string buf tag;
  Hashes.Sha256.hexdigest (Buffer.contents buf)

let stage_index store findings factored =
  let n = Store.size store in
  let vuln_index = Id_set.create ~size:n () in
  List.iter (fun (f : BG.finding) -> Id_set.add vuln_index f.BG.index) findings;
  let factored_index = Array.make n None in
  List.iter
    (fun (f : Fp.t) ->
      match Store.find store f.Fp.modulus with
      | Some id -> factored_index.(id) <- Some f
      | None -> ())
    factored;
  (vuln_index, factored_index)

(* The attribution engine: every registered pass scheduled over one
   shared context, merged into the evidence table ({!Registry.run}).
   With [parent], the delta passes resume from the parent run's
   results. Per-pass wall clocks land in the stage timing table as
   "pass:NAME". *)
let stage_attribution sctx ?pool ?only_passes ?parent world certs scan_ids
    store corpus findings factored factored_index unrecovered =
  Stage.run sctx "attribution" (fun () ->
      let ctx =
        {
          FPass.Ctx.store;
          corpus;
          findings;
          factored;
          factored_index;
          unrecovered;
          scans = scan_ids;
          certs;
          modulus_bits = (Netsim.World.config world).Netsim.World.modulus_bits;
        }
      in
      let r =
        Registry.run ?pool ?only:only_passes ?parent ctx Registry.builtin
      in
      List.iter
        (fun (name, seconds) -> Stage.note sctx ("pass:" ^ name) ~seconds)
        r.Registry.times;
      (r.Registry.attribution, r.Registry.results))

(* Findings that are new since [before] or whose divisor changed. *)
let changed_findings before findings =
  let module M = Map.Make (Int) in
  let old =
    List.fold_left
      (fun m (f : BG.finding) -> M.add f.BG.index f.BG.divisor m)
      M.empty before
  in
  List.filter
    (fun (f : BG.finding) ->
      match M.find_opt f.BG.index old with
      | Some d -> not (N.equal d f.BG.divisor)
      | None -> true)
    findings

(* Dense indexes for names, in first-seen order. *)
let namer () =
  let index = Hashtbl.create 64 in
  let names = ref [] in
  let id name =
    match Hashtbl.find_opt index name with
    | Some k -> k
    | None ->
      let k = Hashtbl.length index in
      Hashtbl.replace index name k;
      names := name :: !names;
      k
  in
  (id, fun () -> Array.of_list (List.rev !names))

(* Resolve every monthly record once: vendor (the certificate's
   subject-rule label, else what its modulus proves — clique
   membership, then shared-prime pools, never the subject majority of
   other certificates) and model (from the label). Labels are looked
   up once per certificate id, the fallback once per modulus id; the
   records themselves cost array reads. Then count every vendor and
   model in one pass. *)
let build_view ~attribution ~certs ~vuln_index ~moduli monthly_ids =
  let vendor_id, vendor_names = namer () in
  let model_id, model_names = namer () in
  let labels =
    match Attribution.cert_labels attribution with
    | Some labels -> labels
    | None -> Array.make (Cert_store.size certs) None
  in
  let cert_vendor =
    Array.map
      (function
        | Some { Fingerprint.Rules.vendor; _ } -> vendor_id vendor | None -> -1)
      labels
  in
  let cert_model =
    Array.map
      (function
        | Some { Fingerprint.Rules.model_id = Some m; _ } -> model_id m
        | _ -> -1)
      labels
  in
  let unresolved = -2 in
  let fallback = Array.make moduli unresolved in
  let modulus_vendor m =
    if fallback.(m) = unresolved then
      fallback.(m) <-
        (match
           Attribution.vendor_of
             ~use:[ Evidence.Prime_clique; Evidence.Shared_prime ]
             attribution m
         with
        | Some v -> vendor_id v
        | None -> -1);
    fallback.(m)
  in
  let keyed keys_of =
    List.map
      (fun (s : Scan_ids.t) ->
        let n = Array.length s.Scan_ids.cert_ids in
        { Ts.ids = s; keys = Array.init n (keys_of s) })
      monthly_ids
  in
  let by_vendor =
    keyed (fun s i ->
        match cert_vendor.(s.Scan_ids.cert_ids.(i)) with
        | -1 -> modulus_vendor s.Scan_ids.modulus_ids.(i)
        | v -> v)
  in
  let by_model = keyed (fun s i -> cert_model.(s.Scan_ids.cert_ids.(i))) in
  let tabulate names = Ts.tabulate ~names ~vulnerable:vuln_index in
  {
    vendors = tabulate (vendor_names ()) by_vendor;
    models = tabulate (model_names ()) by_model;
    by_vendor;
  }

(* Downstream of the GCD artifact, of_scans and extend are identical:
   recover factorizations, index, and run the attribution passes. With
   [parent] (the pipeline extended and the scans it gains), findings
   that kept their divisor keep their split, and the delta passes
   resume from the parent's results. *)
let finish sctx ?pool ?only_passes ?parent world certs scan_ids
    monthly_ids protocol_snapshots (https_moduli, https_ids) store corpus gcd =
  let findings = gcd_findings gcd in
  let factored, unrecovered, delta =
    Stage.run sctx "fingerprint" (fun () ->
        match parent with
        | None ->
          let factored, unrecovered = Fp.recover findings in
          (factored, unrecovered, None)
        | Some (t, new_ids) ->
          let changed = changed_findings t.findings findings in
          let factored, unrecovered =
            Fp.recover ~parent:(t.factored_index, changed) findings
          in
          let delta =
            {
              FPass.Delta.moduli_from = Array.length t.corpus;
              certs_from = Cert_store.size t.certs;
              scans = new_ids;
              findings = changed;
            }
          in
          (factored, unrecovered, Some (delta, t.pass_results)))
  in
  (* Findings carry corpus indexes, and corpus order is store insertion
     order, so a finding's index is its store id directly. *)
  let vuln_index, factored_index =
    Stage.run sctx "index" (fun () -> stage_index store findings factored)
  in
  let attribution, pass_results =
    stage_attribution sctx ?pool ?only_passes ?parent:delta world certs
      scan_ids store corpus findings factored factored_index unrecovered
  in
  let scan_of (s : Scan_ids.t) = s.Scan_ids.scan in
  {
    world;
    scans = List.map scan_of scan_ids;
    monthly = List.map scan_of monthly_ids;
    protocol_snapshots;
    https_moduli;
    https_ids;
    store;
    certs;
    scan_ids;
    monthly_ids;
    corpus;
    gcd;
    findings;
    factored;
    unrecovered;
    attribution;
    pass_results;
    vuln_index;
    factored_index;
    view =
      lazy
        (build_view ~attribution ~certs ~vuln_index
           ~moduli:(Store.size store) monthly_ids);
    timings = Stage.timings sctx;
  }

let of_scans ?progress ?shards ?domains ?checkpoint_dir
    ?only_passes world scans =
  let sctx = Stage.ctx ?progress ?dir:checkpoint_dir () in
  let say = match progress with Some f -> f | None -> fun _ -> () in
  let certs = Cert_store.create ~size:4096 () in
  let store = Store.create ~size:4096 () in
  (* One persistent pool for the whole pipeline run, scan stage
     included; [domains] sizes it, defaulting to the hardware (or
     WEAKKEYS_DOMAINS). *)
  let pool = Parallel.Pool.get ?domains () in
  (* Every HTTPS record gets its certificate and modulus ids here, so
     HTTPS moduli take the first store ids, in first-observation order. *)
  let scan_ids, monthly_ids, protocol_snapshots =
    Stage.run sctx "scan" (fun () ->
        let scan_ids = List.map (Scan_ids.intern certs store) scans in
        ( scan_ids,
          Dataset.representative_monthly_ids scan_ids,
          Sc.protocol_snapshots ~pool world ))
  in
  (* Corpus assembly: the other protocols' moduli after the HTTPS ones
     — the same order the pre-interning corpus used, so batch-GCD
     finding indexes are store ids. *)
  let https =
    Stage.run sctx "intern" (fun () ->
        List.iter
          (fun (p : Sc.protocol_snapshot) ->
            if p.Sc.protocol <> Sc.Https then
              Array.iter (fun m -> ignore (Store.intern store m)) p.Sc.rsa_moduli)
          protocol_snapshots;
        let seen = Id_set.create ~size:(Store.size store) () in
        (https_moduli_of store seen scan_ids, seen))
  in
  let corpus = Store.to_array store in
  let stride = gcd_stride ?shards (Array.length corpus) in
  say
    (Printf.sprintf "batch GCD over %d distinct moduli (%s%d domains)"
       (Array.length corpus)
       (match stride with
       | None -> ""
       | Some s -> Printf.sprintf "sharded, stride=%d, " s)
       (Parallel.Pool.size pool));
  let tag =
    match stride with None -> "" | Some s -> Printf.sprintf "/stride=%d" s
  in
  let gcd =
    Stage.run_cached sctx "batchgcd" ~key:(lazy (corpus_key corpus tag))
      ~save:save_gcd ~load:load_gcd
      (fun () -> gcd_create ~pool ?shards corpus)
  in
  say (Printf.sprintf "%d moduli factored" (List.length (gcd_findings gcd)));
  finish sctx ~pool ?only_passes world certs scan_ids monthly_ids
    protocol_snapshots https store corpus gcd

let of_world ?progress ?shards ?domains ?checkpoint_dir ?only_passes world =
  (match progress with Some f -> f "running scan campaigns" | None -> ());
  let scans = Sc.run_all world in
  of_scans ?progress ?shards ?domains ?checkpoint_dir ?only_passes world scans

let run ?progress ?shards ?domains ?checkpoint_dir ?only_passes config =
  let world = Netsim.World.build ?progress config in
  of_world ?progress ?shards ?domains ?checkpoint_dir ?only_passes world

let extend ?domains t new_scans =
  let sctx = Stage.ctx () in
  (* Copies of the old tables (same ids), so the input pipeline value
     stays fully usable after this call. Only the new scans' records
     are interned, and only their month's picks can change. *)
  let store, certs, new_ids, monthly_ids =
    Stage.run sctx "scan" (fun () ->
        let store = Store.copy t.store and certs = Cert_store.copy t.certs in
        let new_ids = List.map (Scan_ids.intern certs store) new_scans in
        (store, certs, new_ids, Dataset.extend_monthly_ids t.monthly_ids new_ids))
  in
  let scan_ids = t.scan_ids @ new_ids in
  let https, fresh, corpus =
    Stage.run sctx "intern" (fun () ->
        let before = Array.length t.corpus in
        let seen = Id_set.copy t.https_ids in
        let fresh =
          Array.init (Store.size store - before) (fun i ->
              Store.get store (before + i))
        in
        ( (Array.append t.https_moduli (https_moduli_of store seen new_ids), seen),
          fresh,
          Array.append t.corpus fresh ))
  in
  let pool = Parallel.Pool.get ?domains () in
  let gcd =
    Stage.run sctx "batchgcd" (fun () -> gcd_extend ~pool t.gcd fresh)
  in
  finish sctx ~pool ~parent:(t, new_ids) t.world certs scan_ids
    monthly_ids t.protocol_snapshots https store corpus gcd

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let id_of t n = Store.find t.store n

let is_vulnerable t n =
  match id_of t n with
  | Some id -> Id_set.mem t.vuln_index id
  | None -> false

(* Derived views over the attribution table: what used to be bespoke
   pipeline fields is each pass's artifact now. *)
let cliques t = Option.value ~default:[] (Attribution.cliques t.attribution)
let shared t = Attribution.shared t.attribution
let rimon t = Option.value ~default:[] (Attribution.mitm t.attribution)
let openssl_table t = Attribution.openssl_table t.attribution

let view t = Lazy.force t.view
let vendor_series t name = Ts.series (view t).vendors name
let model_series t model_id = Ts.series (view t).models model_id

let transitions t vendor =
  let v = view t in
  match Ts.index v.vendors vendor with
  | Some k ->
    Analysis.Transitions.for_key ~vulnerable:t.vuln_index v.by_vendor k
  | None -> Analysis.Transitions.for_key ~vulnerable:t.vuln_index [] 0

let vulnerable_https_host_records t =
  List.fold_left
    (fun acc (s : Scan_ids.t) ->
      Array.fold_left
        (fun acc id -> if Id_set.mem t.vuln_index id then acc + 1 else acc)
        acc s.Scan_ids.modulus_ids)
    0 t.scan_ids

let vulnerable_https_certs t =
  let certs = Id_set.create ~size:(Cert_store.size t.certs) () in
  List.iter
    (fun (s : Scan_ids.t) ->
      Array.iteri
        (fun i id ->
          if Id_set.mem t.vuln_index id then
            Id_set.add certs s.Scan_ids.cert_ids.(i))
        s.Scan_ids.modulus_ids)
    t.scan_ids;
  Id_set.cardinal certs

let vulnerable_by_protocol t =
  List.map
    (fun (p : Sc.protocol_snapshot) ->
      let v =
        Array.fold_left
          (fun acc m -> if is_vulnerable t m then acc + 1 else acc)
          0 p.Sc.rsa_moduli
      in
      (p.Sc.protocol, v))
    t.protocol_snapshots

let labeled_factored t =
  List.map
    (fun (f : Fp.t) ->
      let label =
        match id_of t f.Fp.modulus with
        | None -> None
        | Some id -> Attribution.vendor_of t.attribution id
      in
      (f, label))
    t.factored

let bit_error_summary t =
  match Attribution.bit_error_triage t.attribution with
  | Some (suspects, near) -> Some (List.length suspects, near)
  | None -> None
