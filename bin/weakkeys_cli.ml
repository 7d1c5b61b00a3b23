(* The weakkeys command-line tool.

   Subcommands:
     report  - run the full study and print every table and figure
     table   - print one of the paper's tables (1-5)
     figure  - print one of the paper's figures (1-10)
     factor  - batch-GCD a file of hex moduli (one per line)
     ingest  - batch-GCD a moduli file and write a checkpoint directory
     extend  - fold new moduli into an existing checkpoint incrementally
     keygen  - generate demonstration keys under an entropy profile
     world   - build the simulated internet and print summary stats *)

module N = Bignum.Nat
let ( let* ) = Result.bind
let _ = ( let* )

open Cmdliner

(* ------------- shared options ------------- *)

let seed_arg =
  let doc = "World seed; everything is a deterministic function of it." in
  Arg.(value & opt string "weakkeys-imc16" & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc =
    "Population scale. 1.0 is the calibrated full world (minutes of \
     compute); 0.05 is a quick look."
  in
  Arg.(value & opt float 0.1 & info [ "scale" ] ~docv:"SCALE" ~doc)

let k_arg =
  let doc = "Subset count for the distributed batch GCD." in
  Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc)

let shards_arg =
  let doc =
    "Run the batch GCD over an id-range-sharded arena corpus with at most \
     this many shards (a power of two). Findings are identical to the \
     unsharded path; checkpoints become mapped arena directories that \
     reopen in O(shards)."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"S" ~doc)

let is_pow2 n = n > 0 && n land (n - 1) = 0

let checked_shards = function
  | None -> None
  | Some s when is_pow2 s -> Some s
  | Some s ->
    Printf.eprintf "weakkeys: --shards %d is not a power of two\n%!" s;
    exit 2

(* Power-of-two stride giving at most [shards] shards over [n] ids. *)
let stride_for ~shards n =
  let per = (Stdlib.max n 1 + shards - 1) / shards in
  let rec pow2 s = if s >= per then s else pow2 (2 * s) in
  pow2 1

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let config_of seed scale =
  { Netsim.World.default_config with Netsim.World.seed; scale }

let progress_of quiet =
  if quiet then fun _ -> () else fun m -> Printf.eprintf "[weakkeys] %s\n%!" m

let run_pipeline ?shards ?checkpoint_dir ?only_passes seed scale k quiet =
  Weakkeys.Pipeline.run ~progress:(progress_of quiet) ~k ?shards
    ?checkpoint_dir ?only_passes (config_of seed scale)

(* ------------- report ------------- *)

let ckpt_opt_arg =
  let doc =
    "Checkpoint directory. The batch-GCD stage is saved there and restored \
     on a rerun over the identical corpus instead of recomputing."
  in
  Arg.(value & opt (some string) None & info [ "ckpt" ] ~docv:"DIR" ~doc)

let only_pass_arg =
  let doc =
    "Run only the named attribution passes (comma-separated; see the \
     'passes' subcommand), automatically closed over their declared \
     dependencies. Report sections owned by an excluded pass render as \
     skipped."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "only-pass" ] ~docv:"NAME,..." ~doc)

let only_passes_of = function
  | None -> None
  | Some s ->
    Some
      (List.filter_map
         (fun name ->
           let name = String.trim name in
           if name = "" then None else Some name)
         (String.split_on_char ',' s))

let report_cmd =
  let run seed scale k shards quiet ckpt only_pass =
    match
      run_pipeline ?shards:(checked_shards shards) ?checkpoint_dir:ckpt
        ?only_passes:(only_passes_of only_pass) seed scale k quiet
    with
    | exception Fingerprint.Registry.Unknown_pass name ->
      Printf.eprintf
        "weakkeys: unknown attribution pass `%s` (list them with \
         `weakkeys passes`)\n%!"
        name;
      exit 2
    | p ->
      if not quiet then
        List.iter
          (fun (tm : Weakkeys.Stage.timing) ->
            Printf.eprintf "[weakkeys] stage %-12s %6.2fs%s\n%!"
              tm.Weakkeys.Stage.stage tm.Weakkeys.Stage.seconds
              (if tm.Weakkeys.Stage.restored then " (restored)" else ""))
          p.Weakkeys.Pipeline.timings;
      print_string (Weakkeys.Report.full_report p)
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Run the full study: every table and figure.")
    Term.(
      const run $ seed_arg $ scale_arg $ k_arg $ shards_arg $ quiet_arg
      $ ckpt_opt_arg $ only_pass_arg)

(* ------------- table / figure ------------- *)

let table_cmd =
  let idx =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Table 1-5.")
  in
  let run n seed scale k quiet =
    if n = 2 then print_string (Weakkeys.Report.table2 ())
    else begin
      let p = run_pipeline seed scale k quiet in
      let f =
        match n with
        | 1 -> Weakkeys.Report.table1
        | 3 -> Weakkeys.Report.table3
        | 4 -> Weakkeys.Report.table4
        | 5 -> Weakkeys.Report.table5
        | _ -> fun _ -> "no such table (1-5)\n"
      in
      print_string (f p)
    end
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Print one of the paper's tables.")
    Term.(const run $ idx $ seed_arg $ scale_arg $ k_arg $ quiet_arg)

let figure_cmd =
  let idx =
    Arg.(
      required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Figure 1-10.")
  in
  let run n seed scale k quiet =
    let p = run_pipeline seed scale k quiet in
    let f =
      match n with
      | 1 -> Weakkeys.Report.figure1
      | 2 -> Weakkeys.Report.figure2
      | 3 -> Weakkeys.Report.figure3
      | 4 -> Weakkeys.Report.figure4
      | 5 -> Weakkeys.Report.figure5
      | 6 -> Weakkeys.Report.figure6
      | 7 -> Weakkeys.Report.figure7
      | 8 -> Weakkeys.Report.figure8
      | 9 -> Weakkeys.Report.figure9
      | 10 -> Weakkeys.Report.figure10
      | _ -> fun _ -> "no such figure (1-10)\n"
    in
    print_string (f p)
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Print one of the paper's figures.")
    Term.(const run $ idx $ seed_arg $ scale_arg $ k_arg $ quiet_arg)

(* ------------- factor / ingest / extend ------------- *)

let moduli_file_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"File of moduli, one per line, hex (0x optional) or decimal. \
              Use - for stdin.")

let read_moduli file =
  let ic = if file = "-" then stdin else open_in file in
  let moduli = ref [] in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then begin
         let n =
           if String.length line > 2 && line.[0] = '0' && line.[1] = 'x' then
             N.of_string line
           else if String.exists (function 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false) line
           then N.of_string ("0x" ^ line)
           else N.of_string line
         in
         moduli := n :: !moduli
       end
     done
   with End_of_file -> if file <> "-" then close_in ic);
  Array.of_list (List.rev !moduli)

let print_findings ~total findings =
  Printf.printf "# %d of %d moduli share factors\n" (List.length findings) total;
  List.iter
    (fun f ->
      Printf.printf "%s divisor=%s\n"
        (N.to_hex f.Batchgcd.Batch_gcd.modulus)
        (N.to_hex f.Batchgcd.Batch_gcd.divisor))
    findings

let factor_cmd =
  let run file k =
    let arr = Batchgcd.Batch_gcd.dedup (read_moduli file) in
    Printf.eprintf "[weakkeys] batch GCD over %d distinct moduli (k=%d)\n%!"
      (Array.length arr) k;
    let findings =
      Batchgcd.Backend.factor (Batchgcd.Backend.ksubset_k k) arr
    in
    print_findings ~total:(Array.length arr) findings
  in
  Cmd.v
    (Cmd.info "factor" ~doc:"Batch-GCD a file of RSA moduli.")
    Term.(const run $ moduli_file_arg $ k_arg)

(* [ingest] and [extend] keep the product-tree forest of
   [Batchgcd.Incremental] in DIR/incremental.ckpt, so folding next
   month's moduli in costs one delta tree plus remainder descents
   instead of a full recompute. With --shards the state is instead a
   [Batchgcd.Sharded] arena directory (mapped limb arenas + one forest
   checkpoint per shard) that reopens in O(shards); [extend]
   auto-detects which form a directory holds. *)

let ckpt_req_arg =
  let doc = "Checkpoint directory holding the cached batch-GCD state." in
  Arg.(required & opt (some string) None & info [ "ckpt" ] ~docv:"DIR" ~doc)

let state_path dir = Filename.concat dir "incremental.ckpt"

let save_state dir inc =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = state_path dir in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Batchgcd.Incremental.save oc inc;
  close_out oc;
  Sys.rename tmp path;
  path

let load_state dir =
  let ic = open_in_bin (state_path dir) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let inc = Batchgcd.Incremental.load ic in
      Corpus.Io.expect_end ic;
      inc)

let ingest_cmd =
  let run ckpt file k shards =
    let arr = Batchgcd.Batch_gcd.dedup (read_moduli file) in
    match checked_shards shards with
    | Some shards ->
      let stride = stride_for ~shards (Array.length arr) in
      Printf.eprintf
        "[weakkeys] ingesting %d distinct moduli (sharded, stride=%d)\n%!"
        (Array.length arr) stride;
      let sh = Batchgcd.Sharded.create ~stride arr in
      Batchgcd.Sharded.save_dir sh ckpt;
      Printf.eprintf "[weakkeys] wrote %s (%d arena shards)\n%!" ckpt
        (Batchgcd.Sharded.shard_count sh);
      print_findings
        ~total:(Batchgcd.Sharded.corpus_size sh)
        (Batchgcd.Sharded.findings sh)
    | None ->
      Printf.eprintf "[weakkeys] ingesting %d distinct moduli (k=%d)\n%!"
        (Array.length arr) k;
      let inc = Batchgcd.Incremental.create ~k arr in
      let path = save_state ckpt inc in
      Printf.eprintf "[weakkeys] wrote %s (%d segments)\n%!" path
        (Batchgcd.Incremental.segment_count inc);
      print_findings
        ~total:(Batchgcd.Incremental.corpus_size inc)
        (Batchgcd.Incremental.findings inc)
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Batch-GCD a file of RSA moduli and cache the product-tree forest \
          in a checkpoint directory for later 'extend' runs. With --shards, \
          the corpus is stored as mapped limb arenas sharded by id range.")
    Term.(
      const run $ ckpt_req_arg $ moduli_file_arg $ k_arg $ shards_arg)

let extend_sharded ckpt file =
  let sh = Batchgcd.Sharded.load_dir ckpt in
  let old_size = Batchgcd.Sharded.corpus_size sh in
  let old_findings = List.length (Batchgcd.Sharded.findings sh) in
  (* Dedup against the mapped corpus directly — no rebuild pass. *)
  let seen = Corpus.Store.create ~size:1024 () in
  let fresh = ref [] in
  Array.iter
    (fun m ->
      if Batchgcd.Sharded.find sh m = None then begin
        let before = Corpus.Store.size seen in
        if Corpus.Store.intern seen m >= before then fresh := m :: !fresh
      end)
    (read_moduli file);
  let fresh = Array.of_list (List.rev !fresh) in
  Printf.eprintf
    "[weakkeys] extending %d-modulus sharded corpus with %d new moduli\n%!"
    old_size (Array.length fresh);
  let sh = Batchgcd.Sharded.extend sh fresh in
  List.iter
    (fun (name, jobs) ->
      Printf.eprintf "[weakkeys] delta strategy %-10s %d chunks\n%!" name jobs)
    (Batchgcd.Sharded.backend_uses sh);
  Batchgcd.Sharded.save_dir sh ckpt;
  Printf.eprintf "[weakkeys] wrote %s (%d arena shards, +%d findings)\n%!" ckpt
    (Batchgcd.Sharded.shard_count sh)
    (List.length (Batchgcd.Sharded.findings sh) - old_findings);
  print_findings
    ~total:(Batchgcd.Sharded.corpus_size sh)
    (Batchgcd.Sharded.findings sh)

let extend_cmd =
  let run ckpt file =
    if Batchgcd.Sharded.is_dir_checkpoint ckpt then extend_sharded ckpt file
    else begin
      let inc = load_state ckpt in
      let old_size = Batchgcd.Incremental.corpus_size inc in
      let old_findings = List.length (Batchgcd.Incremental.findings inc) in
      (* Dedup the delta against everything already in the corpus. *)
      let store = Corpus.Store.create ~size:(2 * old_size) () in
      Array.iter
        (fun m -> ignore (Corpus.Store.intern store m))
        (Batchgcd.Incremental.corpus inc);
      let fresh = ref [] in
      Array.iter
        (fun m ->
          let before = Corpus.Store.size store in
          if Corpus.Store.intern store m >= before then fresh := m :: !fresh)
        (read_moduli file);
      let fresh = Array.of_list (List.rev !fresh) in
      Printf.eprintf
        "[weakkeys] extending %d-modulus corpus with %d new moduli\n%!"
        old_size (Array.length fresh);
      let inc = Batchgcd.Incremental.extend inc fresh in
      let path = save_state ckpt inc in
      Printf.eprintf "[weakkeys] wrote %s (%d segments, +%d findings)\n%!" path
        (Batchgcd.Incremental.segment_count inc)
        (List.length (Batchgcd.Incremental.findings inc) - old_findings);
      print_findings
        ~total:(Batchgcd.Incremental.corpus_size inc)
        (Batchgcd.Incremental.findings inc)
    end
  in
  Cmd.v
    (Cmd.info "extend"
       ~doc:
         "Fold new moduli into a checkpointed corpus via incremental batch \
          GCD; no cached product tree is rebuilt, findings match a \
          from-scratch run over the union. Sharded arena checkpoints are \
          auto-detected and extended in place.")
    Term.(const run $ ckpt_req_arg $ moduli_file_arg)

(* ------------- keygen ------------- *)

let keygen_cmd =
  let count =
    Arg.(value & opt int 8 & info [ "n" ] ~docv:"N" ~doc:"Number of keys.")
  in
  let bits =
    Arg.(value & opt int 128 & info [ "bits" ] ~docv:"BITS" ~doc:"Modulus size.")
  in
  let entropy =
    Arg.(
      value & opt int 4
      & info [ "boot-entropy" ] ~docv:"BITS"
          ~doc:"Boot entropy bits of the simulated device (64+ = healthy).")
  in
  let run count bits entropy =
    let profile =
      if entropy >= 64 then Entropy.Device_rng.healthy "cli"
      else Entropy.Device_rng.vulnerable_shared_prime "cli" ~bits:entropy
    in
    for i = 1 to count do
      let rng =
        Entropy.Device_rng.boot profile
          ~device_unique:(Printf.sprintf "cli-%d" i)
          ~boot_state:(i * 6151)
      in
      let k = Rsa.Keypair.generate_on_device ~rng ~bits () in
      Printf.printf "%s\n" (N.to_hex k.Rsa.Keypair.pub.Rsa.Keypair.n)
    done
  in
  Cmd.v
    (Cmd.info "keygen"
       ~doc:
         "Generate device keys under an entropy profile (pipe into 'factor' \
          to reproduce the attack).")
    Term.(const run $ count $ bits $ entropy)

(* ------------- export ------------- *)

let export_cmd =
  let out =
    Arg.(
      value & opt string "weakkeys-export"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created).")
  in
  let run seed scale k quiet out =
    let p = run_pipeline seed scale k quiet in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let write name content =
      let oc = open_out (Filename.concat out name) in
      output_string oc content;
      close_out oc;
      Printf.eprintf "[weakkeys] wrote %s\n%!" (Filename.concat out name)
    in
    write "host_records.csv"
      (Analysis.Export.host_records_csv p.Weakkeys.Pipeline.scans);
    write "moduli.txt" (Analysis.Export.moduli_lines p.Weakkeys.Pipeline.corpus);
    write "findings.csv" (Analysis.Export.findings_csv p.Weakkeys.Pipeline.findings);
    write "overall.csv"
      (Analysis.Export.series_csv
         (Analysis.Timeseries.overall
            ~vulnerable:(Weakkeys.Pipeline.is_vulnerable p)
            p.Weakkeys.Pipeline.monthly));
    List.iter
      (fun vendor ->
        let fname =
          "vendor_"
          ^ String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) vendor
          ^ ".csv"
        in
        write fname
          (Analysis.Export.series_csv
             (Analysis.Timeseries.vendor
                ~label:(Weakkeys.Pipeline.vendor_of_record p)
                ~vulnerable:(Weakkeys.Pipeline.is_vulnerable p)
                p.Weakkeys.Pipeline.monthly vendor)))
      [ "Juniper"; "Innominate"; "IBM"; "Cisco"; "HP"; "Technicolor"; "AVM";
        "Linksys"; "Fortinet"; "ZyXEL"; "Dell"; "Kronos"; "Xerox"; "McAfee";
        "TP-Link"; "ADTRAN"; "D-Link"; "Huawei"; "Sangfor"; "Schmid Telecom" ]
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run the study and export records, moduli, findings and series \
             as CSV/text files.")
    Term.(const run $ seed_arg $ scale_arg $ k_arg $ quiet_arg $ out)

(* ------------- passes ------------- *)

let passes_cmd =
  let run () =
    Printf.printf "%-22s %-38s %s\n" "PASS" "DEPENDS ON" "DESCRIPTION";
    List.iter
      (fun (p : Fingerprint.Pass.t) ->
        Printf.printf "%-22s %-38s %s\n" p.Fingerprint.Pass.name
          (match p.Fingerprint.Pass.deps with
          | [] -> "-"
          | deps -> String.concat ", " deps)
          p.Fingerprint.Pass.doc)
      Fingerprint.Registry.builtin
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:
         "List the registered attribution passes with their dependencies \
          (usable with 'report --only-pass').")
    Term.(const run $ const ())

(* ------------- world ------------- *)

let world_cmd =
  let run seed scale quiet =
    let w = Netsim.World.build ~progress:(progress_of quiet) (config_of seed scale) in
    let devs = Netsim.World.devices w in
    Printf.printf "devices ever: %d\n" (Array.length devs);
    Printf.printf "distinct TLS moduli: %d\n"
      (Array.length (Netsim.World.all_tls_moduli w));
    let truth = Netsim.World.factorable_ground_truth w in
    let weak =
      Array.fold_left
        (fun acc m -> if truth m then acc + 1 else acc)
        0
        (Netsim.World.all_tls_moduli w)
    in
    Printf.printf "ground-truth factorable moduli: %d\n" weak;
    let per_model = Hashtbl.create 32 in
    Array.iter
      (fun d ->
        let id = d.Netsim.World.model.Netsim.Device_model.id in
        Hashtbl.replace per_model id
          (1 + Option.value ~default:0 (Hashtbl.find_opt per_model id)))
      devs;
    Hashtbl.fold (fun id n acc -> (id, n) :: acc) per_model []
    |> List.sort compare
    |> List.iter (fun (id, n) -> Printf.printf "  %-20s %6d\n" id n)
  in
  Cmd.v
    (Cmd.info "world" ~doc:"Build the simulated internet and print stats.")
    Term.(const run $ seed_arg $ scale_arg $ quiet_arg)

let () =
  let doc =
    "Reproduction of 'Weak Keys Remain Widespread in Network Devices' (IMC \
     2016)."
  in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "weakkeys" ~version:"1.0.0" ~doc)
          [ report_cmd; table_cmd; figure_cmd; factor_cmd; ingest_cmd;
            extend_cmd; keygen_cmd; passes_cmd; world_cmd;
            export_cmd ]))
