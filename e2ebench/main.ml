(* End-to-end benchmark: three closed-loop workloads, one caller each,
   on a Parallel.Pool of at most nproc domains.

     sh e2ebench/run.sh --workload study|monthly|sweep --seed N
                        --seconds S --trace 0|1
     sh e2ebench/run.sh --compare BASE.out NEW.out

   The last stdout line is the result object; the line before it is a
   record (environment, input digest, raw samples, layer map) that the
   compare mode reads back. BENCHMARK.json at the repository root says
   why each workload exists.

   Times are speed-normalised: every repetition sits between two runs
   of the fixed {!Speed} probe, and its seconds are scaled by
   [Speed.reference_s] over the probes' mean. The host's speed drifts
   by up to 1.8x over minutes, and the probe tracks that drift; the raw
   seconds are kept in the record line. *)

open E2ebench
module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd
module Sh = Batchgcd.Sharded
module P = Weakkeys.Pipeline
module R = Weakkeys.Report
module W = Netsim.World
module Pool = Parallel.Pool
module J = Lint.Json

(* ------------------------------------------------------------------ *)
(* Fixed sizes                                                        *)
(* ------------------------------------------------------------------ *)

let world_scale = 0.02
let monthly_tail = 24
(* Set-up repeats at least this often and until it has taken this
   long, capped: a cheap set-up is timed over many repetitions. *)
let setup_min_reps = 5
let setup_min_seconds = 1.0
let setup_max_reps = 25
(* Four shards of the 512-modulus sweep corpus, whose size keeps one
   sweep repetition near 2.5 s on two cores: six or more fit a 30 s
   run, so no single slow repetition sets the run's median. *)
let sweep_stride = 128

(* Children must account for their parent within this share. *)
let coverage_tolerance = 0.10
let tmp_root = ".e2ebench_tmp"
let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                   *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("op_p50_s", "s");
    ("wall_s", "s");
    ("moduli_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

let passes =
  [ "subject-rules"; "ibm-clique"; "bit-errors"; "mitm-substitution";
    "shared-prime"; "openssl-fingerprint" ]

let stages = [ "scan"; "intern"; "batchgcd"; "fingerprint"; "index"; "attribution" ]

let sections =
  [ "table1"; "figure2"; "figure7"; "figure9"; "figure10";
    "response_correlation"; "other" ]

(* Per-layer metrics: name, unit, and the end-to-end metric and
   workload the layer should move. Times are seconds per call. *)
let layers =
  let setup = "setup_s on study, monthly" in
  [
    ("netsim.world_build_s", "s", setup);
    ("netsim.scan_replay_s", "s", setup);
    ("netsim.records", "count", setup);
    ("netsim.distinct_moduli", "count", setup);
    ("core.of_scans_s", "s", "op_p50_s on study; setup_s on monthly");
    ("core.extend_s", "s", "op_p50_s on monthly");
  ]
  @ List.map
      (fun s ->
        ( "core.stage." ^ s ^ "_s",
          "s",
          match s with
          | "scan" | "attribution" -> "op_p50_s on monthly"
          | "batchgcd" -> "op_p50_s on study"
          | _ -> "op_p50_s on study, monthly" ))
      stages
  @ [ ("core.report_s", "s", "op_p50_s on study") ]
  @ List.map
      (fun s -> ("core.report." ^ s ^ "_s", "s", "op_p50_s on study"))
      sections
  @ List.map
      (fun p ->
        ( "fingerprint.pass." ^ p ^ "_s",
          "s",
          "op_p50_s on monthly; op_p50_s on study a little" ))
      passes
  @ [
      ("batchgcd.sharded_create_s", "s", "moduli_per_s on sweep");
      ("batchgcd.sharded_extend_s", "s", "op_p50_s on sweep");
      ("batchgcd.backend.tree", "count", "moduli_per_s on sweep");
      ("batchgcd.backend.all_to_all", "count", "op_p50_s on sweep");
      ("batchgcd.segments", "count", "op_p50_s, peak_rss_mb on monthly, sweep");
      ("batchgcd.findings", "count", "output check, every workload");
      ("batchgcd.forest_limbs", "limbs", "op_p50_s, peak_rss_mb on monthly");
    ]
  @ List.map
      (fun s ->
        ( "batchgcd.flat." ^ s ^ "_s",
          "s",
          "moduli_per_s on sweep; none on study, monthly" ))
      [ "product_build"; "precompute"; "descent"; "leaf_gcd"; "total" ]
  @ [
      ("bignum.root_limbs", "limbs", "moduli_per_s on sweep");
      ("bignum.leaf_limbs", "limbs", "moduli_per_s on sweep");
      ("corpus.save_dir_s", "s", "wall_s on sweep");
      ("corpus.restore_s", "s", "wall_s, op_p50_s on sweep");
      ("corpus.checkpoint_bytes", "bytes", "wall_s on sweep");
      ("parallel.domains", "count", "every end-to-end metric");
    ]
  @ List.map
      (fun s -> ("parallel.cpu_per_wall." ^ s, "ratio", "every end-to-end metric"))
      [ "of_scans"; "report"; "extend"; "sharded_create" ]
  @ [
      ("trace.coverage.stages", "ratio", "accounting: stages / of_scans, extend");
      ("trace.coverage.report", "ratio", "accounting: sections / report");
      ("trace.coverage.flat", "ratio", "accounting: phases / flat.total");
      ("trace.overhead_frac", "ratio", "traced / untraced wall_s - 1");
    ]

(* ------------------------------------------------------------------ *)
(* Run context                                                        *)
(* ------------------------------------------------------------------ *)

(* What one repetition measured, in raw seconds. *)
type rep = {
  ops : float list;  (** the latencies op_p50_s is taken over *)
  wall : float;  (** every timed operation of the repetition *)
  work : float;  (** moduli ingested ... *)
  work_s : float;  (** ... in this many seconds *)
}

type measured = { rep : rep; factor : float; in_trace : bool; warm : bool }

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  on : Trace.t;  (** the recorder of traced repetitions *)
  off : Trace.t;  (** a disabled recorder, for untraced ones *)
  pool : Pool.t;
  ops : Ops.t;
  e2e : (string, float) Hashtbl.t;
  layer : (string, float) Hashtbl.t;
  mutable digest : string;
  mutable problems : string list;  (** non-operation check failures *)
  mutable reps : measured list;  (** most recent first *)
  mutable setups : (float * float) list;  (** raw seconds, speed factor *)
  cpu : (string, float * float) Hashtbl.t;  (** span -> cpu, wall *)
}

let problem c msg = c.problems <- msg :: c.problems
let set tbl k v = Hashtbl.replace tbl k v
let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

(* A span that also accumulates process CPU time over wall time. *)
let cpu_span c tr key name f =
  if not (Trace.enabled tr) then f ()
  else begin
    let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
    let c0 = cpu () and w0 = now () in
    let v = Trace.span tr name f in
    let cu, wa = Option.value ~default:(0., 0.) (Hashtbl.find_opt c.cpu key) in
    Hashtbl.replace c.cpu key (cu +. cpu () -. c0, wa +. now () -. w0);
    v
  end

(* Collect the previous repetition's garbage, then time the probe: each
   repetition starts from a compacted heap and is bracketed by probes. *)
let settle () =
  Gc.compact ();
  Speed.probe ()

(* Repeat [f tracer] until the next repetition would end past the
   budget; at least [min_reps], three in a traced run. A traced run
   alternates: repetition 0 is an untraced warm-up, odd ones are
   traced and even ones untraced, so the tracing overhead is measured
   in-process on equally warm repetitions. [f] returns [None] when an
   operation failed; its failure is already counted. *)
let repeat c ~min_reps f =
  let min_reps = if c.traced then Stdlib.max 3 min_reps else min_reps in
  let t0 = now () in
  let rec go n before last =
    if n < min_reps || now () -. t0 +. last <= c.seconds then begin
      let s = now () in
      let tr = if c.traced && n mod 2 = 1 then c.on else c.off in
      let r = f tr in
      let after = settle () in
      let factor = Speed.factor before after in
      Option.iter
        (fun rep ->
          c.reps <- { rep; factor; in_trace = Trace.enabled tr; warm = n = 0 } :: c.reps;
          Printf.eprintf "e2ebench: repetition %d%s: %.3f s raw, speed factor %.3f\n%!" n
            (if Trace.enabled tr then " (traced)" else "") rep.wall factor)
        r;
      go (n + 1) after (now () -. s)
    end
  in
  go 0 (settle ()) 0.

(* Set up several times, each set-up bracketed by probes like a timed
   repetition, report the median of the speed-scaled times, and insist
   that every set-up produced the same inputs. The first one is traced
   when the run is. *)
let setup c ~digest f =
  let rec go n before samples spent first =
    if
      n >= setup_max_reps
      || (n >= setup_min_reps && spent >= setup_min_seconds)
    then (List.rev samples, first)
    else begin
      let tr = if c.traced && n = 0 then c.on else c.off in
      let t0 = now () in
      let v = f tr in
      let dt = now () -. t0 in
      let d = digest v in
      let after = settle () in
      let first =
        match first with
        | None -> Some (v, d)
        | Some (_, d0) as kept ->
          if not (String.equal d d0) then
            problem c "set-up is not deterministic: input digests differ";
          kept
      in
      go (n + 1) after ((dt, Speed.factor before after) :: samples) (spent +. dt) first
    end
  in
  match go 0 (settle ()) [] 0. None with
  | samples, Some (v, d) ->
    c.setups <- samples;
    set c.e2e "setup_s" (Ops.median (List.map (fun (dt, f) -> dt *. f) samples));
    c.digest <- d;
    v
  | _, None -> assert false

(* The end-to-end metrics from the untraced repetitions; in a traced
   run, the overhead of tracing on the repetitions' wall time. *)
let summarise c =
  let scaled r = List.map (fun m -> r m.rep *. m.factor) in
  let untraced = List.filter (fun m -> not m.in_trace) c.reps in
  let walls = scaled (fun r -> r.wall) in
  set c.e2e "op_p50_s"
    (Ops.median (List.concat_map (fun m -> List.map (( *. ) m.factor) m.rep.ops) untraced));
  set c.e2e "wall_s" (Ops.median (walls untraced));
  set c.e2e "moduli_per_s"
    (Ops.median (List.map (fun m -> m.rep.work /. (m.rep.work_s *. m.factor)) untraced));
  if c.traced then
    set c.layer "trace.overhead_frac"
      (Ops.median (walls (List.filter (fun m -> m.in_trace) c.reps))
       /. Ops.median (walls (List.filter (fun m -> not m.warm) untraced))
      -. 1.)

let ok_all checks = List.fold_left (fun acc r -> Result.bind acc (fun () -> Lazy.force r)) (Ok ()) checks
let hex s = Digest.to_hex (Digest.string s)

(* Per-call means of the recorded spans, for the traced repetitions. *)
let span_means c pairs =
  let spans = Trace.spans c.on in
  List.iter
    (fun (metric, span) ->
      let n = Trace.count spans span in
      if n > 0 then set c.layer metric (Trace.total spans span /. float_of_int n))
    pairs

let cpu_ratios c =
  Hashtbl.iter
    (fun key (cu, wa) ->
      if wa > 0. then set c.layer ("parallel.cpu_per_wall." ^ key) (cu /. wa))
    c.cpu

let check_coverage c metric ratio =
  if not (Float.is_nan ratio) then begin
    set c.layer metric ratio;
    if ratio < 1. -. coverage_tolerance || ratio > 1. +. 1e-6 then
      problem c (Printf.sprintf "%s = %.3f, outside tolerance" metric ratio)
  end

(* Stage timings of one pipeline value: the stages proper and the
   per-pass ones, which are notes nested inside the attribution stage. *)
let pass_name (t : Weakkeys.Stage.timing) =
  if String.starts_with ~prefix:"pass:" t.stage then
    Some (String.sub t.stage 5 (String.length t.stage - 5))
  else None

let record_stages c (p : P.t) =
  List.iter
    (fun (t : Weakkeys.Stage.timing) ->
      match pass_name t with
      | Some pass -> add c.layer ("fingerprint.pass." ^ pass ^ "_s") t.seconds
      | None -> add c.layer ("core.stage." ^ t.stage ^ "_s") t.seconds)
    p.P.timings

let stage_sum (p : P.t) =
  List.fold_left
    (fun acc t -> if pass_name t = None then acc +. t.Weakkeys.Stage.seconds else acc)
    0. p.P.timings

(* Per-call means of the stage and pass timings summed over [k] calls. *)
let scale_stage_layers c k =
  List.iter
    (fun name ->
      match Hashtbl.find_opt c.layer name with
      | Some v -> set c.layer name (v /. k)
      | None -> ())
    (List.map (fun s -> "core.stage." ^ s ^ "_s") stages
    @ List.map (fun p -> "fingerprint.pass." ^ p ^ "_s") passes)

let forest_layers c (p : P.t) =
  set c.layer "batchgcd.segments" (float_of_int (P.gcd_segment_count p.P.gcd));
  set c.layer "batchgcd.findings" (float_of_int (List.length p.P.findings));
  match p.P.gcd with
  | P.Flat inc ->
    set c.layer "batchgcd.forest_limbs"
      (float_of_int (Batchgcd.Incremental.total_limbs inc));
    let segs = Batchgcd.Incremental.segments inc in
    let widest f =
      Array.fold_left (fun acc (_, t) -> Stdlib.max acc (f t)) 0 segs
    in
    set c.layer "bignum.root_limbs"
      (float_of_int (widest (fun t -> N.size_limbs (Batchgcd.Product_tree.root t))));
    set c.layer "bignum.leaf_limbs"
      (float_of_int
         (widest (fun t ->
              Array.fold_left
                (fun acc m -> Stdlib.max acc (N.size_limbs m))
                0
                (Batchgcd.Product_tree.leaves t))))
  | P.Sharded _ -> ()

(* ------------------------------------------------------------------ *)
(* Netsim worlds (study, monthly)                                     *)
(* ------------------------------------------------------------------ *)

(* The world is built on one domain: it is set-up only, and its pooled
   time swung by ±10% across runs where one domain stays within ±3%. *)
let world_of c tr =
  let config =
    {
      W.default_config with
      W.seed = Printf.sprintf "e2ebench-%d" c.seed;
      scale = world_scale;
      domains = Some 1;
    }
  in
  let w = Trace.span tr "netsim.world_build" (fun () -> W.build config) in
  let scans = Trace.span tr "netsim.scan_replay" (fun () -> Netsim.Scanner.run_all w) in
  (w, scans)

let scans_digest scans = hex (Marshal.to_string scans [])

let netsim_layers c scans (p : P.t) =
  span_means c
    [ ("netsim.world_build_s", "netsim.world_build");
      ("netsim.scan_replay_s", "netsim.scan_replay") ];
  set c.layer "netsim.records"
    (float_of_int
       (List.fold_left
          (fun acc s -> acc + Array.length s.Netsim.Scanner.records)
          0 scans));
  set c.layer "netsim.distinct_moduli" (float_of_int (Array.length p.P.corpus))

(* The world's ground-truth tables are built once per workload. *)
let truth_check w =
  let factors_of = W.factors_of w and factorable = W.factorable_ground_truth w in
  fun (p : P.t) ->
    Checks.findings_match_truth ~factors_of ~factorable p.P.corpus p.P.findings

let report_sections =
  [
    ("table1", R.table1); ("other", fun _ -> R.table2 ()); ("other", R.table3);
    ("other", R.table4); ("other", R.table5); ("other", R.figure1);
    ("figure2", R.figure2); ("other", R.figure3); ("other", R.figure4);
    ("other", R.figure5); ("other", R.figure6); ("figure7", R.figure7);
    ("other", R.figure8); ("figure9", R.figure9); ("figure10", R.figure10);
    ("other", R.rimon_section); ("other", R.bit_error_section);
    ("other", R.overlap_section);
    ("response_correlation", R.response_correlation_section);
  ]

(* The whole report; traced, section by section — the same text as
   {!Report.full_report}, which the digest check confirms. *)
let report tr p =
  if not (Trace.enabled tr) then R.full_report p
  else
    String.concat "\n"
      (List.map
         (fun (name, f) -> Trace.span tr ("core.report." ^ name) (fun () -> f p))
         report_sections)

let study c =
  let w, scans = setup c ~digest:(fun (_, s) -> scans_digest s) (world_of c) in
  let truth_check = truth_check w in
  let domains = Pool.size c.pool in
  let first_digest = ref None and last = ref None and staged = ref 0. in
  (* Two operations at least, so the report digest is compared within
     every run. *)
  repeat c ~min_reps:2 (fun tr ->
      let run () =
        let t0 = now () in
        let p =
          cpu_span c tr "of_scans" "core.of_scans" (fun () ->
              P.of_scans ~domains w scans)
        in
        let of_scans_s = now () -. t0 in
        let text = cpu_span c tr "report" "core.report" (fun () -> report tr p) in
        (p, text, of_scans_s)
      in
      let check (p, text, _) =
        let d = hex text in
        let d0 = Option.value ~default:d !first_digest in
        first_digest := Some d0;
        ok_all
          [
            lazy (Checks.same_text ~what:"report digest" d d0);
            lazy (truth_check p);
          ]
      in
      Ops.run c.ops run ~check
      |> Option.map (fun ((p, _, of_scans_s), dt) ->
             if Trace.enabled tr then begin
               staged := !staged +. stage_sum p;
               record_stages c p
             end;
             last := Some p;
             (* One repetition is one operation: scans to report text. *)
             {
               ops = [ dt ];
               wall = dt;
               work = float_of_int (Array.length p.P.corpus);
               work_s = of_scans_s;
             }));
  match !last with
  | Some p when c.traced ->
    let spans = Trace.spans c.on in
    let k = float_of_int (Trace.count spans "core.of_scans") in
    scale_stage_layers c k;
    span_means c
      (("core.of_scans_s", "core.of_scans") :: ("core.report_s", "core.report")
      :: List.map (fun s -> ("core.report." ^ s ^ "_s", "core.report." ^ s)) sections);
    (* Several "other" sections per report: per-call means would divide
       by their count, so take the per-report total. *)
    set c.layer "core.report.other_s" (Trace.total spans "core.report.other" /. k);
    check_coverage c "trace.coverage.report" (Trace.coverage spans ~parent:"core.report");
    check_coverage c "trace.coverage.stages" (!staged /. Trace.total spans "core.of_scans");
    netsim_layers c scans p;
    forest_layers c p
  | _ -> ()

let monthly c =
  let domains = Pool.size c.pool in
  let w, scans, base =
    setup c
      ~digest:(fun (_, s, _) -> scans_digest s)
      (fun tr ->
        let w, scans = world_of c tr in
        let head = List.filteri (fun i _ -> i < List.length scans - monthly_tail) scans in
        let base =
          cpu_span c tr "of_scans" "core.of_scans" (fun () ->
              P.of_scans ~domains w head)
        in
        (w, scans, base))
  in
  let tail = List.filteri (fun i _ -> i >= List.length scans - monthly_tail) scans in
  let truth_check = truth_check w in
  (* The from-scratch reference for the last extend's check, computed
     outside set-up and every timed region. *)
  let ref_findings, ref_table1 =
    let p = P.of_scans ~domains w scans in
    (p.P.findings, R.table1 p)
  in
  let last = ref None in
  repeat c ~min_reps:1 (fun tr ->
      let rec go p lats = function
        | [] -> Some (p, lats)
        | scan :: rest -> (
          let check p' =
            ok_all
              [
                lazy (truth_check p');
                lazy
                  (if rest <> [] then Ok ()
                   else
                     ok_all
                       [
                         lazy (Checks.same_findings p'.P.findings ref_findings);
                         lazy (Checks.same_text ~what:"Table 1" (R.table1 p') ref_table1);
                       ]);
              ]
          in
          match
            Ops.run c.ops ~check (fun () ->
                cpu_span c tr "extend" "core.extend" (fun () ->
                    P.extend ~domains p [ scan ]))
          with
          | Some (p', dt) ->
            if Trace.enabled tr then record_stages c p';
            go p' (dt :: lats) rest
          | None -> None)
      in
      go base [] tail
      |> Option.map (fun (p, lats) ->
             last := Some p;
             let spent = List.fold_left ( +. ) 0. lats in
             {
               ops = lats;
               wall = spent;
               work = float_of_int (Array.length p.P.corpus - Array.length base.P.corpus);
               work_s = spent;
             }));
  match !last with
  | Some p when c.traced ->
    let spans = Trace.spans c.on in
    let calls = float_of_int (Trace.count spans "core.extend") in
    scale_stage_layers c calls;
    let stage_total =
      List.fold_left
        (fun acc s ->
          acc +. Option.value ~default:0. (Hashtbl.find_opt c.layer ("core.stage." ^ s ^ "_s")))
        0. stages
    in
    span_means c [ ("core.extend_s", "core.extend"); ("core.of_scans_s", "core.of_scans") ];
    check_coverage c "trace.coverage.stages"
      (stage_total *. calls /. Trace.total spans "core.extend");
    netsim_layers c scans p;
    forest_layers c p
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Sweep                                                              *)
(* ------------------------------------------------------------------ *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

let uses c tr sh =
  if Trace.enabled tr then
    List.iter
      (fun (name, n) -> add c.layer ("batchgcd.backend." ^ name) (float_of_int n))
      (Sh.backend_uses sh)

(* The flat sweep replayed phase by phase through the public kernels:
   the tree-phase and kernel split of Backend.tree's work. *)
let flat_replay c tr corpus =
  let pool = c.pool in
  Trace.span tr "batchgcd.flat.total" (fun () ->
      let tree =
        Trace.span tr "batchgcd.flat.product_build" (fun () ->
            Batchgcd.Product_tree.build ~pool corpus)
      in
      Trace.span tr "batchgcd.flat.precompute" (fun () ->
          Batchgcd.Product_tree.precompute ~pool ~squares:true tree);
      let zs =
        Trace.span tr "batchgcd.flat.descent" (fun () ->
            Batchgcd.Remainder_tree.remainders_mod_square ~pool tree
              (Batchgcd.Product_tree.root tree))
      in
      let divisors =
        Trace.span tr "batchgcd.flat.leaf_gcd" (fun () ->
            Array.init (Array.length corpus) (fun i ->
                N.gcd corpus.(i) (BG.own_subset_component corpus.(i) zs.(i))))
      in
      (tree, BG.collect divisors corpus))

(* Runs once, after the timed repetitions of a traced run: its findings
   must equal Backend.tree's and the planted oracle. *)
let flat_layers c g =
  let corpus = g.Sweep_corpus.base in
  let check (_, findings) =
    ok_all
      [
        lazy (Sweep_corpus.check g ~upto:(Array.length corpus) findings);
        lazy
          (if
             BG.findings_equal findings
               (Batchgcd.Backend.factor Batchgcd.Backend.tree ~pool:c.pool corpus)
           then Ok ()
           else Error "flat replay disagrees with Backend.tree");
      ]
  in
  match Ops.run c.ops (fun () -> flat_replay c c.on corpus) ~check with
  | Some ((tree, _), _) ->
    let spans = Trace.spans c.on in
    List.iter
      (fun s ->
        set c.layer ("batchgcd.flat." ^ s ^ "_s") (Trace.total spans ("batchgcd.flat." ^ s)))
      [ "product_build"; "precompute"; "descent"; "leaf_gcd"; "total" ];
    check_coverage c "trace.coverage.flat" (Trace.coverage spans ~parent:"batchgcd.flat.total");
    set c.layer "bignum.root_limbs"
      (float_of_int (N.size_limbs (Batchgcd.Product_tree.root tree)));
    set c.layer "bignum.leaf_limbs"
      (float_of_int (Array.fold_left (fun acc m -> Stdlib.max acc (N.size_limbs m)) 0 corpus))
  | None -> ()

let sweep c =
  let g =
    setup c ~digest:Sweep_corpus.digest (fun _ ->
        Sweep_corpus.generate Sweep_corpus.default ~seed:c.seed)
  in
  let n = Array.length g.Sweep_corpus.base in
  let delta_size = g.Sweep_corpus.params.Sweep_corpus.delta_size in
  let dir = Filename.concat tmp_root (Printf.sprintf "sweep-%d" (Unix.getpid ())) in
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
  let pool = c.pool in
  let check ~upto sh = Sweep_corpus.check g ~upto (Sh.findings sh) in
  let rec extends tr sh lats d =
    if d = Array.length g.Sweep_corpus.delta then Some (sh, lats)
    else
      match
        Ops.run c.ops
          (fun () ->
            Trace.span tr "batchgcd.sharded_extend" (fun () ->
                Sh.extend ~pool sh g.Sweep_corpus.delta.(d)))
          ~check:(check ~upto:(n + ((d + 1) * delta_size)))
      with
      | Some (sh, dt) ->
        uses c tr sh;
        extends tr sh (dt :: lats) (d + 1)
      | None -> None
  in
  repeat c ~min_reps:1 (fun tr ->
      remove_tree dir;
      let ( let* ) = Option.bind in
      let result =
        let* sh, create_s =
          Ops.run c.ops
            (fun () ->
              cpu_span c tr "sharded_create" "batchgcd.sharded_create" (fun () ->
                  Sh.create ~pool ~stride:sweep_stride g.Sweep_corpus.base))
            ~check:(check ~upto:n)
        in
        uses c tr sh;
        let* sh, restore_s =
          Ops.run c.ops
            (fun () ->
              Trace.span tr "corpus.save_dir" (fun () -> Sh.save_dir sh dir);
              Trace.span tr "corpus.restore" (fun () ->
                  let t = Sh.load_dir dir in
                  ignore (Sh.segment_count t : int);
                  t))
            ~check:(check ~upto:n)
        in
        if Trace.enabled tr then
          set c.layer "corpus.checkpoint_bytes" (float_of_int (dir_bytes dir));
        let* sh, lats = extends tr sh [] 0 in
        if Trace.enabled tr then begin
          set c.layer "batchgcd.segments" (float_of_int (Sh.segment_count sh));
          set c.layer "batchgcd.findings" (float_of_int (List.length (Sh.findings sh)))
        end;
        (* Extends are the per-operation latency; create and the
           checkpoint round trip are one operation each, in wall. *)
        Some
          {
            ops = lats;
            wall = create_s +. restore_s +. List.fold_left ( +. ) 0. lats;
            work = float_of_int n;
            work_s = create_s;
          }
      in
      remove_tree dir;
      result);
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  if c.traced then begin
    let traced = float_of_int (List.length (List.filter (fun m -> m.in_trace) c.reps)) in
    List.iter
      (fun b ->
        Option.iter (fun v -> set c.layer b (v /. traced)) (Hashtbl.find_opt c.layer b))
      [ "batchgcd.backend.tree"; "batchgcd.backend.all_to_all" ];
    span_means c
      [
        ("batchgcd.sharded_create_s", "batchgcd.sharded_create");
        ("batchgcd.sharded_extend_s", "batchgcd.sharded_extend");
        ("corpus.save_dir_s", "corpus.save_dir");
        ("corpus.restore_s", "corpus.restore");
      ];
    flat_layers c g
  end

(* ------------------------------------------------------------------ *)
(* Environment                                                        *)
(* ------------------------------------------------------------------ *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (In_channel.input_all ic))
  with Sys_error _ -> None

let trim = String.trim

(* The commit from .git when the checkout has one; file reads only. *)
let commit () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head ->
    let head = trim head in
    if String.starts_with ~prefix:"ref: " head then
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some h -> trim h
      | None -> (
        match read_file ".git/packed-refs" with
        | Some packed ->
          String.split_on_char '\n' packed
          |> List.find_map (fun l ->
                 match String.split_on_char ' ' (trim l) with
                 | [ h; name ] when String.equal name r -> Some h
                 | _ -> None)
          |> Option.value ~default:"unknown"
        | None -> "unknown")
    else head

(* Digest of the library sources the numbers were measured on. *)
let source_digest () =
  let rec files dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p
           else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
           then [ p ]
           else [])
  in
  if not (Sys.file_exists "lib") then "none"
  else
    hex
      (String.concat ""
         (List.map (fun p -> p ^ Digest.to_hex (Digest.file p)) (files "lib")))

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some s ->
    String.split_on_char '\n' s
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
           | _ -> None)
    |> Option.value ~default:Float.nan

let knobs () =
  Unix.environment () |> Array.to_list
  |> List.filter (String.starts_with ~prefix:"WEAKKEYS_")

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v
let str s = "\"" ^ J.escape s ^ "\""
let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields) ^ "}"
let arr items = "[" ^ String.concat ", " items ^ "]"

let metric_values c =
  if c.traced then
    List.map
      (fun (name, unit, maps) ->
        (name, Option.value ~default:0. (Hashtbl.find_opt c.layer name), unit, maps))
      layers
  else
    List.map
      (fun (name, unit) ->
        (name, Option.value ~default:Float.nan (Hashtbl.find_opt c.e2e name), unit, ""))
      end_to_end

(* Count, total and self time per span name, in first-start order. *)
let span_summary c =
  let spans = Trace.spans c.on in
  List.fold_left
    (fun acc s -> if List.mem s.Trace.name acc then acc else s.Trace.name :: acc)
    [] spans
  |> List.rev
  |> List.map (fun name ->
         (name, Trace.count spans name, Trace.total spans name, Trace.self_total spans name))

let emit c ~workload =
  let values = metric_values c in
  let attempted = Ops.attempted c.ops and failed = Ops.failed c.ops in
  let finite = List.for_all (fun (_, v, _, _) -> Float.is_finite v) values in
  let correct = failed = 0 && attempted > 0 && c.problems = [] && finite in
  let reps = List.rev c.reps in
  let record =
    obj
      [
        ( "e2ebench",
          obj
            [
              ("workload", str workload);
              ("seed", string_of_int c.seed);
              ("trace", if c.traced then "1" else "0");
              ("seconds", num c.seconds);
              ("nproc", string_of_int (Domain.recommended_domain_count ()));
              ("domains", string_of_int (Pool.size c.pool));
              ("ocaml", str Sys.ocaml_version);
              ("commit", str (commit ()));
              ("source_digest", str (source_digest ()));
              ("input_digest", str c.digest);
              ("op_samples", string_of_int (List.length (List.concat_map (fun m -> m.rep.ops) reps)));
              ("speed_reference_s", num Speed.reference_s);
              ("speed_factors", arr (List.map (fun m -> num m.factor) reps));
              ("raw_walls_s", arr (List.map (fun m -> num m.rep.wall) reps));
              ("raw_setups_s", arr (List.map (fun (dt, _) -> num dt) c.setups));
              ("setup_speed_factors", arr (List.map (fun (_, f) -> num f) c.setups));
              ("latencies_s", arr (List.map num (Ops.samples c.ops)));
              ( "failed_frac",
                num (float_of_int failed /. float_of_int (Stdlib.max 1 attempted)) );
              ("errors", arr (List.map str (Ops.errors c.ops @ List.rev c.problems)));
              ( "spans",
                arr
                  (List.map
                     (fun (name, n, total, self) ->
                       obj
                         [ ("name", str name); ("count", string_of_int n);
                           ("total_s", num total); ("self_s", num self) ])
                     (span_summary c)) );
              ( "values",
                arr
                  (List.map
                     (fun (name, v, unit, maps) ->
                       obj
                         ([ ("name", str name); ("value", num v); ("unit", str unit) ]
                         @ if maps = "" then [] else [ ("maps_to", str maps) ]))
                     values) );
            ] );
      ]
  in
  print_endline record;
  print_endline
    (obj
       [
         ("correct", string_of_bool correct);
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           obj
             (List.map
                (fun (name, v, unit, _) ->
                  (name, obj [ ("value", num v); ("unit", str unit) ]))
                values) );
       ])

(* ------------------------------------------------------------------ *)
(* Compare mode                                                        *)
(* ------------------------------------------------------------------ *)

let records path =
  match read_file path with
  | None -> failwith ("cannot read " ^ path)
  | Some text ->
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           match J.parse l with
           | Ok r -> J.member "e2ebench" r
           | Error _ -> None)

let field name r = match J.member name r with Some v -> v | None -> J.Null

let as_float = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

(* workload/trace -> metric -> values, across the records of a file. *)
let grouped path =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let key =
        Printf.sprintf "%s trace=%s"
          (Option.value ~default:"?" (J.to_string (field "workload" r)))
          (match field "trace" r with J.Int i -> string_of_int i | _ -> "?")
      in
      let vals = Option.value ~default:[] (J.to_list (field "values" r)) in
      List.iter
        (fun v ->
          match (J.to_string (field "name" v), as_float (field "value" v)) with
          | Some name, Some x ->
            let maps = Option.value ~default:"" (J.to_string (field "maps_to" v)) in
            let prev = Option.value ~default:([], maps) (Hashtbl.find_opt tbl (key, name)) in
            Hashtbl.replace tbl (key, name) (x :: fst prev, maps)
          | _ -> ())
        vals)
    (records path);
  tbl

let compare_files base next =
  let a = grouped base and b = grouped next in
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) a []
    |> List.filter (fun k -> Hashtbl.mem b k)
    |> List.sort_uniq compare
  in
  if keys = [] then begin
    prerr_endline "compare: no workload appears in both files";
    exit 2
  end;
  let order name =
    match List.find_index (fun (n, _, _) -> String.equal n name) layers with
    | Some i -> i
    | None -> (
      match List.find_index (fun (n, _) -> String.equal n name) end_to_end with
      | Some i -> -100 + i
      | None -> max_int)
  in
  let keys =
    List.sort
      (fun (k1, n1) (k2, n2) ->
        match compare k1 k2 with 0 -> Int.compare (order n1) (order n2) | c -> c)
      keys
  in
  Printf.printf "%-22s %-44s %14s %14s %9s  %s\n" "workload" "metric" "base" "new"
    "delta" "maps to";
  (* Medians across each file's runs; layers a workload never touches
     read 0 on both sides and are left out. *)
  List.iter
    (fun ((w, name) as k) ->
      let va, maps = Hashtbl.find a k and vb, _ = Hashtbl.find b k in
      let ma = Ops.median va and mb = Ops.median vb in
      if ma <> 0. || mb <> 0. then
        let delta =
          if ma = 0. then "new"
          else Printf.sprintf "%+.1f%%" (100. *. (mb -. ma) /. Float.abs ma)
        in
        Printf.printf "%-22s %-44s %14.6g %14.6g %9s  %s\n" w name ma mb delta maps)
    keys

(* ------------------------------------------------------------------ *)
(* Entry                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let compare = ref false and files = ref [] in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "study|monthly|sweep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--compare", Arg.Set compare, " BASE NEW: diff two saved outputs");
    ]
  in
  Arg.parse spec (fun f -> files := !files @ [ f ]) "e2ebench [options]";
  if !compare then
    match !files with
    | [ base; next ] -> compare_files base next
    | _ ->
      prerr_endline "usage: --compare BASE NEW";
      exit 2
  else begin
    (match knobs () with
    | [] -> ()
    | set ->
      Printf.eprintf
        "e2ebench: refusing to run with tuning knobs set (%s); the numbers \
         must measure the defaults\n"
        (String.concat ", " set);
      exit 2);
    let run =
      match !workload with
      | "study" -> study
      | "monthly" -> monthly
      | "sweep" -> sweep
      | w ->
        Printf.eprintf "e2ebench: unknown workload %S\n" w;
        exit 2
    in
    if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace must be 0 or 1"; exit 2);
    let c =
      {
        seed = !seed;
        seconds = !seconds;
        traced = !trace = 1;
        on = Trace.create ~enabled:true;
        off = Trace.create ~enabled:false;
        pool = Pool.get ~domains:(Domain.recommended_domain_count ()) ();
        ops = Ops.create ();
        e2e = Hashtbl.create 8;
        layer = Hashtbl.create 64;
        digest = "";
        problems = [];
        reps = [];
        setups = [];
        cpu = Hashtbl.create 4;
      }
    in
    run c;
    summarise c;
    set c.e2e "peak_rss_mb" (peak_rss_mb ());
    set c.layer "parallel.domains" (float_of_int (Pool.size c.pool));
    cpu_ratios c;
    emit c ~workload:!workload
  end
