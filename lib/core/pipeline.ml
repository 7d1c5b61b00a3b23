module N = Bignum.Nat
module Sc = Netsim.Scanner
module Cert = X509lite.Certificate
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

(* The cached GCD artifact: the classic single-address-space segment
   forest, or the id-range-sharded arena-backed driver when the run
   asked for [shards]. Both carry the forest and the findings; extend
   continues in whichever mode the state is in. *)
type gcd_state = Flat of Inc.t | Sharded of Sh.t

let gcd_findings = function
  | Flat inc -> Inc.findings inc
  | Sharded sh -> Sh.findings sh

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

(* Power-of-two stride giving at most [shards] shards over [n] ids. *)
let stride_for ~shards n =
  if shards < 1 then invalid_arg "Pipeline: shards must be >= 1";
  let per = (Stdlib.max n 1 + shards - 1) / shards in
  let rec pow2 s = if s >= per then s else pow2 (2 * s) in
  pow2 1

type t = {
  world : Netsim.World.t;
  scans : Sc.scan list;
  monthly : Sc.scan list;
  protocol_snapshots : Sc.protocol_snapshot list;
  https_moduli : N.t array;
  store : Store.t;
  corpus : N.t array;
  gcd : gcd_state;
  findings : BG.finding list;
  factored : Fp.t list;
  unrecovered : N.t list;
  attribution : Attribution.t;
  vuln_index : Id_set.t;
  factored_index : Fp.t option array;
  cert_fp : Cert.t -> string;
  timings : Stage.timing list;
}

let modulus_of_record (r : Sc.host_record) =
  r.Sc.cert.Cert.public_key.Rsa.Keypair.n

(* Certificates are shared across every record that observed them, and
   the report renders dozens of series over millions of records:
   memoize the (SHA-256) fingerprint per certificate value. The memo
   lives in the pipeline value (not a process global) and is handed to
   the attribution passes through their context, so its lifetime is
   bounded by the run that owns the certificates it keys on. A mutex
   keeps it safe for passes running concurrently on the pool. *)
let cert_fp_memo () =
  let cache : (Cert.t, string) Hashtbl.t = Hashtbl.create 65536 in
  let lock = Mutex.create () in
  fun c ->
    Mutex.lock lock;
    match Hashtbl.find_opt cache c with
    | Some fp ->
      Mutex.unlock lock;
      fp
    | None ->
      (* Hash outside the lock; a duplicate computation is harmless
         and both domains store the same digest. *)
      Mutex.unlock lock;
      let fp = Cert.fingerprint c in
      Mutex.lock lock;
      Hashtbl.replace cache c fp;
      Mutex.unlock lock;
      fp

let majority_vendor = Attribution.majority_vendor

(* ------------------------------------------------------------------ *)
(* Stages                                                              *)
(* ------------------------------------------------------------------ *)

let intern_all store moduli =
  Array.iter (fun m -> ignore (Store.intern store m)) moduli

(* Corpus assembly: HTTPS moduli in first-observation order, then the
   other protocols' — the same order the pre-interning corpus used, so
   batch-GCD finding indexes are store ids. *)
let stage_intern store scans protocol_snapshots =
  let https_moduli = Analysis.Dataset.distinct_moduli scans in
  intern_all store https_moduli;
  List.iter
    (fun (p : Sc.protocol_snapshot) ->
      if p.Sc.protocol <> Sc.Https then intern_all store p.Sc.rsa_moduli)
    protocol_snapshots;
  https_moduli

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

(* The attribution table additionally depends on the scan records the
   labeling passes read (certificates, page titles, IPs): digest them
   so a checkpoint from a different scan history never restores. *)
let scans_digest cert_fp scans =
  let h = Hashes.Sha256.init () in
  List.iter
    (fun (s : Sc.scan) ->
      Hashes.Sha256.update h (Sc.source_name s.Sc.scan_source);
      Hashes.Sha256.update h (X509lite.Date.to_string s.Sc.scan_date);
      Hashes.Sha256.update h (string_of_int (Array.length s.Sc.records));
      Array.iter
        (fun (r : Sc.host_record) ->
          Hashes.Sha256.update h (Netsim.Ipv4.to_string r.Sc.ip);
          Hashes.Sha256.update h (cert_fp r.Sc.cert);
          Hashes.Sha256.update h (if r.Sc.is_intermediate then "i" else "-");
          Hashes.Sha256.update h (Option.value ~default:"" r.Sc.page_title))
        s.Sc.records)
    scans;
  Hashes.Sha256.to_hex (Hashes.Sha256.finalize h)

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
   Per-pass wall clocks land in the stage timing table as "pass:NAME";
   with a checkpoint dir the whole table is content-addressed like the
   GCD artifact. *)
let stage_attribution sctx ~checkpointed ?pool ?only_passes world scans store
    corpus findings factored factored_index unrecovered cert_fp =
  let bits = (Netsim.World.config world).Netsim.World.modulus_bits in
  let compute () =
    let ctx =
      {
        FPass.Ctx.store;
        corpus;
        findings;
        factored;
        factored_index;
        unrecovered;
        scans;
        page_titles = Analysis.Dataset.page_title_index scans;
        cert_fp;
        modulus_bits = bits;
      }
    in
    let attr, times = Registry.run ?pool ?only:only_passes ctx Registry.builtin in
    List.iter
      (fun (name, seconds) -> Stage.note sctx ("pass:" ^ name) ~seconds)
      times;
    attr
  in
  if not checkpointed then Stage.run sctx "attribution" compute
  else begin
    let selected =
      List.map
        (fun p -> p.FPass.name)
        (Registry.select ?only:only_passes Registry.builtin)
    in
    let tag =
      Printf.sprintf "/attribution/bits=%d/passes=%s/scans=%s" bits
        (String.concat "," selected)
        (scans_digest cert_fp scans)
    in
    Stage.run_cached sctx "attribution" ~key:(corpus_key corpus tag)
      ~save:Attribution.save
      ~load:(Attribution.load ~subjects:(Array.length corpus))
      compute
  end

(* Downstream of the GCD artifact, of_scans and extend are identical:
   recover factorizations, index, and run the attribution passes. *)
let finish sctx ?pool ?only_passes ~checkpointed world scans monthly
    protocol_snapshots https_moduli store corpus gcd =
  let findings = gcd_findings gcd in
  let factored, unrecovered =
    Stage.run sctx "fingerprint" (fun () -> Fp.recover findings)
  in
  (* Findings carry corpus indexes, and corpus order is store insertion
     order, so a finding's index is its store id directly. *)
  let vuln_index, factored_index =
    Stage.run sctx "index" (fun () -> stage_index store findings factored)
  in
  let cert_fp = cert_fp_memo () in
  let attribution =
    stage_attribution sctx ~checkpointed ?pool ?only_passes world scans store
      corpus findings factored factored_index unrecovered cert_fp
  in
  {
    world;
    scans;
    monthly;
    protocol_snapshots;
    https_moduli;
    store;
    corpus;
    gcd;
    findings;
    factored;
    unrecovered;
    attribution;
    vuln_index;
    factored_index;
    cert_fp;
    timings = Stage.timings sctx;
  }

let of_scans ?progress ?(k = 16) ?shards ?domains ?checkpoint_dir
    ?only_passes world scans =
  let sctx = Stage.ctx ?progress ?dir:checkpoint_dir () in
  let say = match progress with Some f -> f | None -> fun _ -> () in
  let monthly, protocol_snapshots =
    Stage.run sctx "scan" (fun () ->
        ( Analysis.Dataset.representative_monthly scans,
          Sc.protocol_snapshots world ))
  in
  let store = Store.create ~size:4096 () in
  let https_moduli =
    Stage.run sctx "intern" (fun () ->
        stage_intern store scans protocol_snapshots)
  in
  let corpus = Store.to_array store in
  (* One persistent pool for the whole pipeline run; [domains] sizes
     it, defaulting to the hardware (or WEAKKEYS_DOMAINS). *)
  let pool = Parallel.Pool.get ?domains () in
  let gcd =
    match shards with
    | None ->
      say
        (Printf.sprintf
           "batch GCD over %d distinct moduli (k=%d, %d domains)"
           (Array.length corpus) k (Parallel.Pool.size pool));
      Stage.run_cached sctx "batchgcd"
        ~key:(corpus_key corpus (Printf.sprintf "/k=%d" k))
        ~save:save_gcd ~load:load_gcd
        (fun () -> Flat (Inc.create ~pool ~k corpus))
    | Some shards ->
      let stride = stride_for ~shards (Array.length corpus) in
      say
        (Printf.sprintf
           "sharded batch GCD over %d distinct moduli (stride=%d, %d domains)"
           (Array.length corpus) stride (Parallel.Pool.size pool));
      Stage.run_cached sctx "batchgcd"
        ~key:(corpus_key corpus (Printf.sprintf "/stride=%d" stride))
        ~save:save_gcd ~load:load_gcd
        (fun () -> Sharded (Sh.create ~pool ~stride corpus))
  in
  say (Printf.sprintf "%d moduli factored" (List.length (gcd_findings gcd)));
  finish sctx ~pool ?only_passes
    ~checkpointed:(checkpoint_dir <> None)
    world scans monthly protocol_snapshots https_moduli store corpus gcd

let of_world ?progress ?k ?shards ?domains ?checkpoint_dir ?only_passes
    world =
  (match progress with Some f -> f "running scan campaigns" | None -> ());
  let scans = Sc.run_all world in
  of_scans ?progress ?k ?shards ?domains ?checkpoint_dir ?only_passes world
    scans

let run ?progress ?k ?shards ?domains ?checkpoint_dir ?only_passes config =
  let world = Netsim.World.build ?progress config in
  of_world ?progress ?k ?shards ?domains ?checkpoint_dir ?only_passes world

let extend ?progress ?domains ?checkpoint_dir ?only_passes t new_scans =
  let sctx = Stage.ctx ?progress ?dir:checkpoint_dir () in
  let scans, monthly =
    Stage.run sctx "scan" (fun () ->
        let scans = List.concat [ t.scans; new_scans ] in
        (scans, Analysis.Dataset.representative_monthly scans))
  in
  (* A fresh store seeded with the old corpus (same ids), so the input
     pipeline value stays fully usable after this call. *)
  let store = Store.create ~size:(2 * Array.length t.corpus) () in
  intern_all store t.corpus;
  let https_moduli, fresh =
    Stage.run sctx "intern" (fun () ->
        let https = Analysis.Dataset.distinct_moduli scans in
        let before = Store.size store in
        let fresh = ref [] in
        Array.iter
          (fun m -> if Store.intern store m >= before then fresh := m :: !fresh)
          https;
        (https, Array.of_list (List.rev !fresh)))
  in
  let corpus = Store.to_array store in
  let pool = Parallel.Pool.get ?domains () in
  (match progress with
  | Some f ->
    f
      (Printf.sprintf "delta batch GCD: %d new moduli against %d cached"
         (Array.length fresh) (gcd_corpus_size t.gcd))
  | None -> ());
  let gcd =
    Stage.run_cached sctx "batchgcd"
      ~key:
        (corpus_key corpus
           (match t.gcd with
           | Flat _ -> "/extend"
           | Sharded sh -> Printf.sprintf "/extend/stride=%d" (Sh.stride sh)))
      ~save:save_gcd ~load:load_gcd
      (fun () ->
        match t.gcd with
        | Flat inc -> Flat (Inc.extend ~pool inc fresh)
        | Sharded sh -> Sharded (Sh.extend ~pool sh fresh))
  in
  finish sctx ~pool ?only_passes
    ~checkpointed:(checkpoint_dir <> None)
    t.world scans monthly t.protocol_snapshots https_moduli store corpus gcd

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
let passes_run t = Stage.timings_named "pass:" t.timings

let cert_label t fp =
  match Attribution.cert_labels t.attribution with
  | None -> None
  | Some labels -> (
    match Hashtbl.find_opt labels fp with Some l -> l | None -> None)

let vendor_of_record t (r : Sc.host_record) =
  match cert_label t (t.cert_fp r.Sc.cert) with
  | Some { Fingerprint.Rules.vendor; _ } -> Some vendor
  | None -> (
    match id_of t (modulus_of_record r) with
    | None -> None
    | Some id ->
      (* The certificate matched no rule: fall back to what the
         modulus itself proves — clique membership, then shared-prime
         pools — never the subject majority of other certificates. *)
      Attribution.vendor_of
        ~use:[ Evidence.Prime_clique; Evidence.Shared_prime ]
        t.attribution id)

let model_of_record t (r : Sc.host_record) =
  match cert_label t (t.cert_fp r.Sc.cert) with
  | Some { Fingerprint.Rules.model_id = Some m; _ } -> Some m
  | _ -> None

let vulnerable_https_host_records t =
  List.fold_left
    (fun acc (s : Sc.scan) ->
      Array.fold_left
        (fun acc r ->
          if is_vulnerable t (modulus_of_record r) then acc + 1 else acc)
        acc s.Sc.records)
    0 t.scans

let vulnerable_https_certs t =
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (s : Sc.scan) ->
      Array.iter
        (fun (r : Sc.host_record) ->
          if is_vulnerable t (modulus_of_record r) then
            Hashtbl.replace seen (t.cert_fp r.Sc.cert) ())
        s.Sc.records)
    t.scans;
  Hashtbl.length seen

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

let suspected_bit_errors t =
  match Attribution.bit_error_triage t.attribution with
  | Some (suspects, _) -> suspects
  | None -> []

let bit_error_summary t =
  match Attribution.bit_error_triage t.attribution with
  | Some (suspects, near) -> Some (List.length suspects, near)
  | None -> None
