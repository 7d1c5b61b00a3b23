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

let shards_arg =
  let doc =
    "Run the batch GCD over an id-range-sharded corpus with at most this \
     many shards. Findings are identical to the unsharded path."
  in
  Arg.(value & opt (some int) None & info [ "shards" ] ~docv:"S" ~doc)

let checked_shards = function
  | Some s when s < 1 ->
    Printf.eprintf "weakkeys: --shards %d is not a positive count\n%!" s;
    exit 2
  | shards -> shards

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let config_of seed scale =
  { Netsim.World.default_config with Netsim.World.seed; scale }

let progress_of quiet =
  if quiet then fun _ -> () else fun m -> Printf.eprintf "[weakkeys] %s\n%!" m

let run_pipeline ?shards ?checkpoint_dir ?only_passes seed scale quiet =
  Weakkeys.Pipeline.run ~progress:(progress_of quiet) ?shards
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
  let run seed scale shards quiet ckpt only_pass =
    match
      run_pipeline ?shards:(checked_shards shards) ?checkpoint_dir:ckpt
        ?only_passes:(only_passes_of only_pass) seed scale quiet
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
      const run $ seed_arg $ scale_arg $ shards_arg $ quiet_arg $ ckpt_opt_arg
      $ only_pass_arg)

(* ------------- table / figure ------------- *)

let table_cmd =
  let idx =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Table 1-5.")
  in
  let run n seed scale quiet =
    if n = 2 then print_string (Weakkeys.Report.table2 ())
    else begin
      let p = run_pipeline seed scale quiet in
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
    Term.(const run $ idx $ seed_arg $ scale_arg $ quiet_arg)

let figure_cmd =
  let idx =
    Arg.(
      required & pos 0 (some int) None & info [] ~docv:"N" ~doc:"Figure 1-10.")
  in
  let run n seed scale quiet =
    let p = run_pipeline seed scale quiet in
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
    Term.(const run $ idx $ seed_arg $ scale_arg $ quiet_arg)

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
  let k_arg =
    let doc =
      "Subset count for the paper's distributed batch GCD: k subset trees \
       and k x k reduction jobs (findings are the same for every k)."
    in
    Arg.(value & opt int 16 & info [ "k" ] ~docv:"K" ~doc)
  in
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
   [Batchgcd.Sharded] checkpoint, one file DIR/sweep; [extend] tells
   the two apart by whether DIR/sweep exists. *)

let ckpt_req_arg =
  let doc = "Checkpoint directory holding the cached batch-GCD state." in
  Arg.(required & opt (some string) None & info [ "ckpt" ] ~docv:"DIR" ~doc)

let state_path dir = Filename.concat dir "incremental.ckpt"

let save_state dir inc =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = state_path dir in
  Corpus.Io.write_atomic path (fun oc -> Batchgcd.Incremental.save oc inc);
  path

let load_state dir =
  In_channel.with_open_bin (state_path dir) (fun ic ->
      let inc = Batchgcd.Incremental.load ic in
      Corpus.Io.expect_end ic;
      inc)

(* The moduli of [file] for which [known] is false, each once, in file
   order. *)
let fresh_moduli ?(known = fun _ -> false) file =
  let store = Corpus.Store.create () in
  Array.iter
    (fun m -> if not (known m) then ignore (Corpus.Store.intern store m))
    (read_moduli file);
  Corpus.Store.to_array store

(* Membership in an incremental checkpoint's corpus, which keeps no
   index of its own. *)
let known_in corpus =
  let store = Corpus.Store.create ~size:(2 * Array.length corpus) () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) corpus;
  Corpus.Store.mem store

let ingest_cmd =
  let run ckpt file shards =
    let arr = fresh_moduli file in
    match checked_shards shards with
    | Some shards ->
      let stride = Batchgcd.Sharded.stride_for ~shards (Array.length arr) in
      Printf.eprintf
        "[weakkeys] ingesting %d distinct moduli (sharded, stride=%d)\n%!"
        (Array.length arr) stride;
      let sh = Batchgcd.Sharded.create ~stride arr in
      Batchgcd.Sharded.save_dir sh ckpt;
      Printf.eprintf "[weakkeys] wrote %s (%d shards)\n%!" ckpt
        (Batchgcd.Sharded.shard_count sh);
      print_findings
        ~total:(Batchgcd.Sharded.corpus_size sh)
        (Batchgcd.Sharded.findings sh)
    | None ->
      Printf.eprintf "[weakkeys] ingesting %d distinct moduli\n%!"
        (Array.length arr);
      let inc = Batchgcd.Incremental.create arr in
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
          the forest is cut into id-range shards.")
    Term.(
      const run $ ckpt_req_arg $ moduli_file_arg $ shards_arg)

(* A missing, damaged or older-format checkpoint is a one-line error,
   not an uncaught exception. *)
let load_or_exit load ckpt =
  match load ckpt with
  | v -> v
  | exception Sys_error msg ->
    Printf.eprintf "weakkeys: cannot read checkpoint: %s\n%!" msg;
    exit 2
  | exception (Corpus.Io.Corrupt _ | End_of_file) ->
    Printf.eprintf
      "weakkeys: %s holds a damaged or older-format checkpoint; ingest the \
       moduli again\n%!"
      ckpt;
    exit 2

let extend_cmd =
  let run ckpt file =
    if Batchgcd.Sharded.is_dir_checkpoint ckpt then begin
      let sh = load_or_exit Batchgcd.Sharded.load_dir ckpt in
      let old_findings = List.length (Batchgcd.Sharded.findings sh) in
      let fresh =
        fresh_moduli ~known:(fun m -> Batchgcd.Sharded.find sh m <> None) file
      in
      Printf.eprintf
        "[weakkeys] extending %d-modulus sharded corpus with %d new moduli\n%!"
        (Batchgcd.Sharded.corpus_size sh) (Array.length fresh);
      let sh = Batchgcd.Sharded.extend sh fresh in
      List.iter
        (fun (name, jobs) ->
          Printf.eprintf "[weakkeys] %s: %d shard-boundary chunks\n%!" name
            jobs)
        (Batchgcd.Sharded.backend_uses sh);
      Batchgcd.Sharded.save_dir sh ckpt;
      Printf.eprintf "[weakkeys] wrote %s (%d shards, +%d findings)\n%!" ckpt
        (Batchgcd.Sharded.shard_count sh)
        (List.length (Batchgcd.Sharded.findings sh) - old_findings);
      print_findings
        ~total:(Batchgcd.Sharded.corpus_size sh)
        (Batchgcd.Sharded.findings sh)
    end
    else begin
      let inc = load_or_exit load_state ckpt in
      let old_findings = List.length (Batchgcd.Incremental.findings inc) in
      let fresh =
        fresh_moduli ~known:(known_in (Batchgcd.Incremental.corpus inc)) file
      in
      Printf.eprintf
        "[weakkeys] extending %d-modulus corpus with %d new moduli\n%!"
        (Batchgcd.Incremental.corpus_size inc) (Array.length fresh);
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
          from-scratch run over the union. Sharded checkpoints are \
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
  let run seed scale quiet out =
    let p = run_pipeline seed scale quiet in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let write name content =
      let oc = open_out (Filename.concat out name) in
      output_string oc content;
      close_out oc;
      Printf.eprintf "[weakkeys] wrote %s\n%!" (Filename.concat out name)
    in
    write "host_records.csv"
      (Analysis.Export.host_records_csv p.Weakkeys.Pipeline.certs
         p.Weakkeys.Pipeline.scan_ids);
    write "moduli.txt" (Analysis.Export.moduli_lines p.Weakkeys.Pipeline.corpus);
    write "findings.csv" (Analysis.Export.findings_csv p.Weakkeys.Pipeline.findings);
    write "overall.csv"
      (Analysis.Export.series_csv
         (Analysis.Timeseries.overall
            ~vulnerable:p.Weakkeys.Pipeline.vuln_index
            p.Weakkeys.Pipeline.monthly_ids));
    List.iter
      (fun vendor ->
        let fname =
          "vendor_"
          ^ String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) vendor
          ^ ".csv"
        in
        write fname
          (Analysis.Export.series_csv (Weakkeys.Pipeline.vendor_series p vendor)))
      [ "Juniper"; "Innominate"; "IBM"; "Cisco"; "HP"; "Technicolor"; "AVM";
        "Linksys"; "Fortinet"; "ZyXEL"; "Dell"; "Kronos"; "Xerox"; "McAfee";
        "TP-Link"; "ADTRAN"; "D-Link"; "Huawei"; "Sangfor"; "Schmid Telecom" ]
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Run the study and export records, moduli, findings and series \
             as CSV/text files.")
    Term.(const run $ seed_arg $ scale_arg $ quiet_arg $ out)

(* ------------- passes ------------- *)

let passes_cmd =
  let run () =
    Printf.printf "%-22s %-38s %-8s %s\n" "PASS" "DEPENDS ON" "EXTENDS"
      "DESCRIPTION";
    List.iter
      (fun (p : Fingerprint.Pass.t) ->
        Printf.printf "%-22s %-38s %-8s %s\n" p.Fingerprint.Pass.name
          (match p.Fingerprint.Pass.deps with
          | [] -> "-"
          | deps -> String.concat ", " deps)
          (Fingerprint.Pass.extends p) p.Fingerprint.Pass.doc)
      Fingerprint.Registry.builtin
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:
         "List the registered attribution passes with their dependencies \
          (usable with 'report --only-pass') and how each follows \
          'extend': delta (pays for the new scans only) or full (reruns \
          over the whole corpus).")
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
