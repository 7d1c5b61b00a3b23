(* The weakkeys command-line tool.

   Subcommands:
     report  - run the full study and print every table and figure
     table   - print one of the paper's tables (1-5)
     figure  - print one of the paper's figures (1-10)
     factor  - batch-GCD a file of moduli (one per line, hex or decimal)
     ingest  - batch-GCD a moduli file and keep its forest in DIR/gcd.ckpt
     extend  - fold new moduli into DIR/gcd.ckpt incrementally
     keygen  - print demonstration moduli (0x hex) under an entropy profile
     passes  - list the attribution passes
     export  - write the study's records, moduli and series as files
     world   - build the simulated internet and print summary stats

   Input errors (a malformed moduli line, a missing or damaged
   checkpoint, --shards below 1, a key size keygen cannot make) print
   one line on stderr and exit with code 2. *)

module N = Bignum.Nat
module Pipeline = Weakkeys.Pipeline

(* Every input error ends the same way: one line on stderr, exit 2. *)
let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("weakkeys: " ^ msg);
      exit 2)
    fmt

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
  | Some s when s < 1 -> fail "--shards %d is not a positive count" s
  | shards -> shards

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let config_of seed scale =
  { Netsim.World.default_config with Netsim.World.seed; scale }

let progress_of quiet =
  if quiet then fun _ -> () else fun m -> Printf.eprintf "[weakkeys] %s\n%!" m

let run_pipeline ?shards ?checkpoint_dir ?only_passes seed scale quiet =
  Pipeline.run ~progress:(progress_of quiet) ?shards
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
      fail "unknown attribution pass `%s` (list them with `weakkeys passes`)"
        name
    | p ->
      if not quiet then
        List.iter
          (fun (tm : Weakkeys.Stage.timing) ->
            Printf.eprintf "[weakkeys] stage %-12s %6.2fs%s\n%!"
              tm.Weakkeys.Stage.stage tm.Weakkeys.Stage.seconds
              (if tm.Weakkeys.Stage.restored then " (restored)" else ""))
          p.Pipeline.timings;
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
        ~doc:"File of moduli, one per line, hex (0x optional) or decimal; \
              lines starting with # are comments. Use - for stdin.")

(* A line with a hex letter and no 0x prefix is hex; any other line
   is read by [N.of_string] (0x hex, else decimal). *)
let parse_modulus line =
  let prefixed =
    String.length line >= 2 && line.[0] = '0' && (line.[1] = 'x' || line.[1] = 'X')
  in
  let hex_letter = function 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  N.of_string
    (if String.exists hex_letter line && not prefixed then "0x" ^ line else line)

exception Bad_line of int * string

let read_moduli file =
  let read ic =
    let rec go lineno acc =
      match In_channel.input_line ic with
      | None -> Array.of_list (List.rev acc)
      | Some line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go (lineno + 1) acc
        else
          match parse_modulus line with
          | n -> go (lineno + 1) (n :: acc)
          | exception Invalid_argument _ -> raise (Bad_line (lineno, line))
    in
    go 1 []
  in
  match if file = "-" then read stdin else In_channel.with_open_text file read with
  | moduli -> moduli
  | exception Sys_error msg -> fail "cannot read moduli: %s" msg
  | exception Bad_line (lineno, line) ->
    fail "%s:%d: not a modulus: %s" (if file = "-" then "<stdin>" else file)
      lineno line

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

(* [ingest] and [extend] keep the batch-GCD state in one file,
   DIR/gcd.ckpt: the product-tree forest ({!Pipeline.save_gcd}), cut
   into id-range shards with --shards. Folding next month's moduli in
   costs one delta tree plus remainder descents instead of a full
   recompute, in whichever mode the state was ingested. *)

let ckpt_req_arg =
  let doc = "Checkpoint directory holding the cached batch-GCD state." in
  Arg.(required & opt (some string) None & info [ "ckpt" ] ~docv:"DIR" ~doc)

let state_file dir = Filename.concat dir "gcd.ckpt"

(* The moduli of [file] not in [known] (distinct moduli), each once, in
   file order. *)
let fresh_moduli known file =
  let store = Corpus.Store.create ~size:(2 * Array.length known) () in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) known;
  let before = Corpus.Store.size store in
  Array.iter (fun m -> ignore (Corpus.Store.intern store m)) (read_moduli file);
  Array.init (Corpus.Store.size store - before) (fun i ->
      Corpus.Store.get store (before + i))

(* A missing, damaged or older-format checkpoint is a one-line error,
   not an uncaught exception. *)
let load_state dir =
  let file = state_file dir in
  match
    In_channel.with_open_bin file (fun ic ->
        let g = Pipeline.load_gcd ic in
        Corpus.Io.expect_end ic;
        g)
  with
  | g -> g
  | exception Sys_error _
    when List.exists
           (fun old -> Sys.file_exists (Filename.concat dir old))
           [ "incremental.ckpt"; "sweep" ] ->
    fail "%s holds an older-format checkpoint; ingest the moduli again" dir
  | exception Sys_error msg -> fail "cannot read checkpoint: %s" msg
  | exception (Corpus.Io.Corrupt _ | End_of_file) ->
    fail "%s is damaged or older-format; ingest the moduli again" file

(* Write [g] to DIR/gcd.ckpt and print its findings; [before] is the
   finding count of the state it grew from. *)
let save_state dir ~before g =
  let file = state_file dir in
  (try
     if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
     Corpus.Io.write_atomic file (fun oc -> Pipeline.save_gcd oc g)
   with Sys_error msg -> fail "cannot write checkpoint: %s" msg);
  let findings = Pipeline.gcd_findings g in
  Printf.eprintf "[weakkeys] wrote %s (%d segments, +%d findings)\n%!" file
    (Pipeline.gcd_segment_count g)
    (List.length findings - before);
  print_findings ~total:(Pipeline.gcd_corpus_size g) findings

let ingest_cmd =
  let run ckpt file shards =
    let shards = checked_shards shards in
    let fresh = fresh_moduli [||] file in
    Printf.eprintf "[weakkeys] ingesting %d distinct moduli\n%!"
      (Array.length fresh);
    save_state ckpt ~before:0
      (Pipeline.gcd_create ~pool:(Parallel.Pool.get ()) ?shards fresh)
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:
         "Batch-GCD a file of RSA moduli and cache the product-tree forest \
          in DIR/gcd.ckpt for later 'extend' runs. With --shards, the \
          forest is cut into id-range shards.")
    Term.(
      const run $ ckpt_req_arg $ moduli_file_arg $ shards_arg)

let extend_cmd =
  let run ckpt file =
    let g = load_state ckpt in
    let fresh = fresh_moduli (Pipeline.gcd_corpus g) file in
    Printf.eprintf
      "[weakkeys] extending %d-modulus corpus with %d new moduli\n%!"
      (Pipeline.gcd_corpus_size g) (Array.length fresh);
    save_state ckpt
      ~before:(List.length (Pipeline.gcd_findings g))
      (Pipeline.gcd_extend ~pool:(Parallel.Pool.get ()) g fresh)
  in
  Cmd.v
    (Cmd.info "extend"
       ~doc:
         "Fold new moduli into a checkpointed corpus via incremental batch \
          GCD; no cached product tree is rebuilt, findings match a \
          from-scratch run over the union. A sharded state stays \
          sharded.")
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
    let key i =
      let rng =
        Entropy.Device_rng.boot profile
          ~device_unique:(Printf.sprintf "cli-%d" i)
          ~boot_state:(i * 6151)
      in
      Rsa.Keypair.generate_on_device ~rng ~bits ()
    in
    for i = 1 to count do
      match key i with
      | k -> Printf.printf "0x%s\n" (N.to_hex k.Rsa.Keypair.pub.Rsa.Keypair.n)
      | exception Invalid_argument msg -> fail "keygen: %s" msg
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
      (Analysis.Export.host_records_csv p.Pipeline.certs
         p.Pipeline.scan_ids);
    write "moduli.txt" (Analysis.Export.moduli_lines p.Pipeline.corpus);
    write "findings.csv" (Analysis.Export.findings_csv p.Pipeline.findings);
    write "overall.csv"
      (Analysis.Export.series_csv
         (Analysis.Timeseries.overall
            ~vulnerable:p.Pipeline.vuln_index
            p.Pipeline.monthly_ids));
    List.iter
      (fun vendor ->
        let fname =
          "vendor_"
          ^ String.map (fun c -> if c = ' ' then '_' else Char.lowercase_ascii c) vendor
          ^ ".csv"
        in
        write fname
          (Analysis.Export.series_csv (Pipeline.vendor_series p vendor)))
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
