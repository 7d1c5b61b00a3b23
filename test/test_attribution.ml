(* The attribution engine: typed evidence merge, pass registry
   scheduling, serialization, and pooled-vs-sequential equivalence. *)

module A = Fingerprint.Attribution
module E = Fingerprint.Evidence
module R = Fingerprint.Registry
module FPass = Fingerprint.Pass
module Pool = Parallel.Pool

let ev ?vendor ?model_id ?(technique = E.Subject_rule) ?(weight = 1)
    ?(witnesses = []) subject =
  E.make ~subject ~technique ?vendor ?model_id ~weight ~witnesses ()

(* ------------------------------------------------------------------ *)
(* Evidence merge                                                      *)
(* ------------------------------------------------------------------ *)

let test_rank_precedence () =
  let a = A.create () in
  (* Weaker technique first: insertion order must not matter. *)
  A.add a (ev ~vendor:"SharedVendor" ~technique:E.Shared_prime ~weight:10 7);
  A.add a (ev ~vendor:"CliqueVendor" ~technique:E.Prime_clique 7);
  A.add a (ev ~vendor:"SubjectVendor" ~technique:E.Subject_rule 7);
  Alcotest.(check (option string))
    "subject rule outranks clique and shared-prime despite weights"
    (Some "SubjectVendor") (A.vendor_of a 7);
  Alcotest.(check (option string))
    "clique outranks shared-prime" (Some "CliqueVendor")
    (A.vendor_of ~use:[ E.Prime_clique; E.Shared_prime ] a 7);
  Alcotest.(check (option string))
    "restricted to shared-prime only" (Some "SharedVendor")
    (A.vendor_of ~use:[ E.Shared_prime ] a 7)

let test_weighted_majority_and_tie_break () =
  let a = A.create () in
  A.add a (ev ~vendor:"Aardvark" 1);
  A.add a (ev ~vendor:"Aardvark" 1);
  A.add a (ev ~vendor:"Zebra" ~weight:3 1);
  Alcotest.(check (option string))
    "summed weights win within a technique" (Some "Zebra") (A.vendor_of a 1);
  A.add a (ev ~vendor:"Aardvark" 1);
  Alcotest.(check (option string))
    "3-3 tie broken by lexicographically smallest vendor" (Some "Aardvark")
    (A.vendor_of a 1);
  Alcotest.(check (option string))
    "majority_vendor agrees on the raw ballot" (Some "Aardvark")
    (A.majority_vendor [ ("Zebra", 3); ("Aardvark", 3) ])

let test_vendorless_evidence_is_not_a_vote () =
  let a = A.create () in
  A.add a (ev ~technique:E.Bit_error 4);
  Alcotest.(check (option string))
    "bit-error triage alone yields no vendor" None (A.vendor_of a 4);
  Alcotest.(check int) "but the claim is recorded" 1
    (List.length (A.evidence a 4));
  Alcotest.(check int) "and no id counts as attributed" 0
    (Corpus.Id_set.cardinal (A.attributed a))

let test_model_of () =
  let a = A.create () in
  A.add a (ev ~vendor:"Cisco" ~model_id:"RVS4000" 2);
  A.add a (ev ~vendor:"Cisco" ~model_id:"RV042" 2);
  A.add a (ev ~vendor:"Linksys" ~model_id:"AAA-first-but-losing" 2);
  A.add a (ev ~vendor:"Cisco" 2);
  Alcotest.(check (option string))
    "smallest model among the winning vendor's evidence" (Some "RV042")
    (A.model_of a 2)

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let test_save_load_round_trip () =
  let a = A.create () in
  A.add a
    (E.make ~subject:3 ~technique:E.Shared_prime ~vendor:"IBM"
       ~confidence:0.9 ~weight:2 ~witnesses:[ 1; 2 ] ());
  A.add a
    (E.make ~subject:0 ~technique:E.Subject_rule ~vendor:"Cisco"
       ~model_id:"RV042" ());
  A.add a (E.make ~subject:5 ~technique:E.Bit_error ~confidence:0.875 ());
  let labels = Hashtbl.create 4 in
  Hashtbl.replace labels "fp1"
    (Some { Fingerprint.Rules.vendor = "AVM"; model_id = None });
  Hashtbl.replace labels "fp2" None;
  A.add_artifact a (A.Cert_labels labels);
  A.add_artifact a
    (A.Bit_error_triage
       { suspects = [ Bignum.Nat.of_int 77 ]; near_corpus = 1 });
  A.add_artifact a
    (A.Openssl_table [ ("IBM", Fingerprint.Openssl_fp.Satisfies, 4) ]);
  let path = Filename.temp_file "weakkeys-attr" ".bin" in
  let oc = open_out_bin path in
  A.save oc a;
  close_out oc;
  let ic = open_in_bin path in
  let b = A.load ~subjects:6 ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "evidence tables equal" true (A.equal_evidence a b);
  Alcotest.(check (option string))
    "merge result survives" (A.vendor_of a 3) (A.vendor_of b 3);
  (match A.cert_labels b with
  | Some l ->
    Alcotest.(check int) "both label entries restored" 2 (Hashtbl.length l)
  | None -> Alcotest.fail "cert-labels artifact lost");
  (match A.bit_error_triage b with
  | Some (suspects, near) ->
    Alcotest.(check int) "one suspect" 1 (List.length suspects);
    Alcotest.(check int) "near-corpus count" 1 near
  | None -> Alcotest.fail "bit-error artifact lost");
  match A.openssl_table b with
  | Some [ ("IBM", Fingerprint.Openssl_fp.Satisfies, 4) ] -> ()
  | _ -> Alcotest.fail "openssl table artifact lost"

let test_load_rejects_corrupt () =
  let path = Filename.temp_file "weakkeys-attr" ".bin" in
  let oc = open_out_bin path in
  output_string oc "not an attribution table";
  close_out oc;
  let ic = open_in_bin path in
  let raised =
    try
      ignore (A.load ~subjects:1024 ic);
      false
    with Corpus.Io.Corrupt _ | End_of_file -> true
  in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "corrupt input raises" true raised

(* The table is dense over subject ids, so a well-formed file whose
   one record sits at subject 10^9 would allocate 10^9 slots; [load]
   must reject it against the corpus size before allocating. The file
   is a saved one-record table with its max id, record id and evidence
   subject rewritten (big-endian ints at offsets 0, 8 and 16). *)
let test_load_rejects_subject_beyond_corpus () =
  let a = A.create () in
  A.add a (E.make ~subject:3 ~technique:E.Subject_rule ~vendor:"Cisco" ());
  let path = Filename.temp_file "weakkeys-attr" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      A.save oc a;
      close_out oc;
      let load ~subjects =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            match A.load ~subjects ic with
            | _ -> true
            | exception Corpus.Io.Corrupt _ -> false)
      in
      Alcotest.(check bool) "subject 3 loads with 4 subjects" true
        (load ~subjects:4);
      Alcotest.(check bool) "subject 3 rejected with 3 subjects" false
        (load ~subjects:3);
      let ic = open_in_bin path in
      let bytes = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
      close_in ic;
      let far = 1_000_000_000 in
      List.iter
        (fun (off, v) -> Bytes.set_int32_be bytes off (Int32.of_int v))
        [ (0, far + 1); (8, far); (16, far) ];
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc;
      Alcotest.(check bool) "subject 10^9 rejected with 1024 subjects" false
        (load ~subjects:1024))

(* ------------------------------------------------------------------ *)
(* Registry scheduling                                                 *)
(* ------------------------------------------------------------------ *)

let names passes = List.map (fun p -> p.FPass.name) passes

let test_builtin_schedule () =
  match R.schedule R.builtin with
  | [ w1; w2; w3 ] ->
    Alcotest.(check (list string))
      "wave 1: the four independent passes"
      [ "subject-rules"; "ibm-clique"; "bit-errors"; "mitm-substitution" ]
      (names w1);
    Alcotest.(check (list string)) "wave 2" [ "shared-prime" ] (names w2);
    Alcotest.(check (list string)) "wave 3" [ "openssl-fingerprint" ]
      (names w3)
  | waves ->
    Alcotest.fail
      (Printf.sprintf "expected 3 waves, got %d" (List.length waves))

let test_select_closes_over_deps () =
  Alcotest.(check (list string))
    "shared-prime pulls in its two labelers"
    [ "subject-rules"; "ibm-clique"; "shared-prime" ]
    (names (R.select ~only:[ "shared-prime" ] R.builtin));
  Alcotest.(check (list string))
    "no restriction is the identity"
    (names R.builtin)
    (names (R.select R.builtin))

let test_select_unknown_pass () =
  Alcotest.check_raises "unknown pass name" (R.Unknown_pass "no-such-pass")
    (fun () -> ignore (R.select ~only:[ "no-such-pass" ] R.builtin))

let mk_pass ?(deps = []) name run = { FPass.name; deps; doc = name; run }

let test_schedule_cycle () =
  let a = mk_pass ~deps:[ "b" ] "a" (fun _ _ -> FPass.empty_result) in
  let b = mk_pass ~deps:[ "a" ] "b" (fun _ _ -> FPass.empty_result) in
  let raised =
    try
      ignore (R.schedule [ a; b ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "cycle rejected" true raised

(* ------------------------------------------------------------------ *)
(* Pooled execution                                                    *)
(* ------------------------------------------------------------------ *)

let dummy_ctx () =
  {
    FPass.Ctx.store = Corpus.Store.create ~size:4 ();
    corpus = [||];
    findings = [];
    factored = [];
    factored_index = [||];
    unrecovered = [];
    scans = [];
    certs = X509lite.Cert_store.create ();
    modulus_bits = 512;
  }

let emit_pass ?deps name vendor ids =
  mk_pass ?deps name (fun _ _ ->
      {
        FPass.evidence = List.map (fun id -> ev ~vendor id) ids;
        artifacts = [];
      })

let test_pooled_equals_sequential () =
  let passes =
    [
      emit_pass "p1" "VendorA" [ 0; 1; 2 ];
      emit_pass "p2" "VendorB" [ 1; 3 ];
      emit_pass ~deps:[ "p1"; "p2" ] "p3" "VendorC" [ 2; 4 ];
    ]
  in
  let seq, _ = R.run ~pool:(Pool.get ~domains:1 ()) (dummy_ctx ()) passes in
  let par, _ = R.run ~pool:(Pool.get ~domains:4 ()) (dummy_ctx ()) passes in
  Alcotest.(check bool) "evidence tables identical" true
    (A.equal_evidence seq par);
  Alcotest.(check int) "seven claims either way" 7 (A.evidence_count par)

(* Two barrier passes in the same wave: each spins until the other has
   arrived. Sequential execution can never satisfy the rendezvous, so
   both flags set proves the wave genuinely ran its passes
   concurrently on the pool. *)
let test_wave_runs_concurrently () =
  let pool = Pool.get ~domains:2 () in
  if Pool.size pool < 2 then ()
  else begin
    let arrived = Atomic.make 0 in
    let met = Atomic.make 0 in
    let barrier_pass name =
      mk_pass name (fun _ _ ->
          Atomic.incr arrived;
          let deadline = Unix.gettimeofday () +. 10.0 in
          while Atomic.get arrived < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          if Atomic.get arrived >= 2 then Atomic.incr met;
          FPass.empty_result)
    in
    let _, times =
      R.run ~pool (dummy_ctx ()) [ barrier_pass "left"; barrier_pass "right" ]
    in
    Alcotest.(check int) "both passes executed" 2 (List.length times);
    Alcotest.(check int) "both passes were live at the same time" 2
      (Atomic.get met)
  end

let tests =
  [
    Alcotest.test_case "rank precedence" `Quick test_rank_precedence;
    Alcotest.test_case "weighted majority and tie break" `Quick
      test_weighted_majority_and_tie_break;
    Alcotest.test_case "vendorless evidence" `Quick
      test_vendorless_evidence_is_not_a_vote;
    Alcotest.test_case "model of" `Quick test_model_of;
    Alcotest.test_case "save/load round trip" `Quick
      test_save_load_round_trip;
    Alcotest.test_case "load rejects corrupt" `Quick test_load_rejects_corrupt;
    Alcotest.test_case "load rejects subject beyond corpus" `Quick
      test_load_rejects_subject_beyond_corpus;
    Alcotest.test_case "builtin schedule" `Quick test_builtin_schedule;
    Alcotest.test_case "select closes over deps" `Quick
      test_select_closes_over_deps;
    Alcotest.test_case "select unknown pass" `Quick test_select_unknown_pass;
    Alcotest.test_case "schedule cycle" `Quick test_schedule_cycle;
    Alcotest.test_case "pooled equals sequential" `Quick
      test_pooled_equals_sequential;
    Alcotest.test_case "wave runs concurrently" `Quick
      test_wave_runs_concurrently;
  ]
