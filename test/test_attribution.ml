(* The attribution engine: typed evidence merge, pass registry
   scheduling, and pooled-vs-sequential equivalence. *)

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

let mk_pass ?(deps = []) name run =
  { FPass.name; deps; doc = name; rule = FPass.Full run }

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
        resume = None;
      })

let test_pooled_equals_sequential () =
  let passes =
    [
      emit_pass "p1" "VendorA" [ 0; 1; 2 ];
      emit_pass "p2" "VendorB" [ 1; 3 ];
      emit_pass ~deps:[ "p1"; "p2" ] "p3" "VendorC" [ 2; 4 ];
    ]
  in
  let seq = (R.run ~pool:(Pool.get ~domains:1 ()) (dummy_ctx ()) passes).R.attribution in
  let par = (R.run ~pool:(Pool.get ~domains:4 ()) (dummy_ctx ()) passes).R.attribution in
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
    let times =
      (R.run ~pool (dummy_ctx ()) [ barrier_pass "left"; barrier_pass "right" ])
        .R.times
    in
    Alcotest.(check int) "both passes executed" 2 (List.length times);
    Alcotest.(check int) "both passes were live at the same time" 2
      (Atomic.get met)
  end

(* ------------------------------------------------------------------ *)
(* Delta rules                                                         *)
(* ------------------------------------------------------------------ *)

module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd
module Sc = Netsim.Scanner
module Cert = X509lite.Certificate
module Store = Corpus.Store

let key seed = Rsa.Keypair.generate ~gen:(Worlds.gen_of seed) ~bits:64 ()
let date = X509lite.Date.of_ymd 2014 6 15

let cert ?o ~cn seed =
  Cert.self_sign ~serial:(N.of_int seed) ~subject:(X509lite.Dn.make ~cn ?o ())
    ~not_before:date ~not_after:(X509lite.Date.of_ymd 2024 6 15)
    ~key:(key seed) ()

(* The certificate of [c] re-keyed to [seed]'s key: its signature no
   longer verifies, as behind the substituting ISP. *)
let rekeyed c seed = Cert.substitute_public_key c (key seed).Rsa.Keypair.pub

let record ?title ip c =
  {
    Sc.source = Sc.Rapid7;
    date;
    ip;
    cert = c;
    is_intermediate = false;
    page_title = title;
  }

let scan records =
  { Sc.scan_source = Sc.Rapid7; scan_date = date; records = Array.of_list records }

(* A context over [steps], each some scans and some moduli observed
   outside them, interned in order: the context over [a @ b] has the
   ids of the one over [a]. [findings] are (modulus, divisor) values. *)
let ctx_of ?(findings = []) steps =
  let certs = X509lite.Cert_store.create () and store = Store.create () in
  let scans =
    List.concat_map
      (fun (scans, moduli) ->
        let ids = List.map (Fingerprint.Scan_ids.intern certs store) scans in
        List.iter (fun m -> ignore (Store.intern store m)) moduli;
        ids)
      steps
  in
  let findings =
    List.map
      (fun (m, d) ->
        { BG.index = Option.get (Store.find store m); modulus = m; divisor = d })
      findings
    |> List.sort (fun (a : BG.finding) b -> Int.compare a.BG.index b.BG.index)
  in
  {
    FPass.Ctx.store;
    corpus = Store.to_array store;
    findings;
    factored = [];
    factored_index = Array.make (Store.size store) None;
    unrecovered = [];
    scans;
    certs;
    modulus_bits = 64;
  }

(* Run every builtin pass over [before], then resume over
   [before @ after] with the delta between them; the result equals the
   full run over [before @ after], evidence and artifacts, id for id.
   Returns the parent's and the resumed run's tables. *)
let check_delta ?only ?(findings0 = []) ?(findings1 = []) ~what before after =
  let c0 = ctx_of ~findings:findings0 before in
  let c1 = ctx_of ~findings:findings1 (before @ after) in
  let r0 = R.run ?only c0 R.builtin in
  let changed =
    List.filter
      (fun (f : BG.finding) ->
        not
          (List.exists
             (fun (g : BG.finding) ->
               g.BG.index = f.BG.index && N.equal g.BG.divisor f.BG.divisor)
             c0.FPass.Ctx.findings))
      c1.FPass.Ctx.findings
  in
  let delta =
    {
      FPass.Delta.moduli_from = Store.size c0.FPass.Ctx.store;
      certs_from = X509lite.Cert_store.size c0.FPass.Ctx.certs;
      scans =
        List.filteri
          (fun i _ -> i >= List.length c0.FPass.Ctx.scans)
          c1.FPass.Ctx.scans;
      findings = changed;
    }
  in
  let resumed = R.run ~parent:(delta, r0.R.results) c1 R.builtin in
  let full = R.run c1 R.builtin in
  Alcotest.(check bool) (what ^ ": evidence = full run") true
    (A.equal_evidence full.R.attribution resumed.R.attribution);
  List.iter2
    (fun (section, e) (_, a) ->
      Alcotest.(check (list string)) (what ^ ": " ^ section) e a)
    (Worlds.artifact_lines c1.FPass.Ctx.certs full.R.attribution)
    (Worlds.artifact_lines c1.FPass.Ctx.certs resumed.R.attribution);
  (r0.R.attribution, resumed.R.attribution)

let test_snapgear_title_arrives_late () =
  let plain = cert ~o:"Generic Appliance" ~cn:"192.0.2.1" 11 in
  let titled = cert ~o:"Generic Appliance" ~cn:"192.0.2.2" 12 in
  let before =
    [
      ( [ scan [ record 1 plain; record 2 plain;
                 record ~title:"SnapGear Management Console" 3 titled ] ],
        [] );
    ]
  in
  let after =
    [ ([ scan [ record ~title:"McAfee SnapGear Management Console" 1 plain ] ],
       []) ]
  in
  let a0, a1 = check_delta ~what:"late title" before after in
  let id = 0 in
  Alcotest.(check (option string)) "no vendor before the title" None
    (A.vendor_of a0 id);
  Alcotest.(check (option string)) "relabelled from the title" (Some "McAfee")
    (A.vendor_of a1 id);
  Alcotest.(check (list int)) "all three records vote" [ 3 ]
    (List.map (fun (e : E.t) -> e.E.weight) (A.evidence a1 id));
  Alcotest.(check (option string)) "the titled certificate is unchanged"
    (A.vendor_of a0 1) (A.vendor_of a1 1)

(* One record of certificate [c] at each address of [ips]. *)
let rimon_records ~ips c = List.map (fun ip -> record ip c) ips
let range a b = List.init (b - a + 1) (fun i -> a + i)

let test_rimon_thresholds_cross_late () =
  let valid = cert ~cn:"device A" 21 in
  (* the key of [valid], in certificates of other subjects *)
  let b = rekeyed (cert ~cn:"device B" 22) 21 in
  let c = rekeyed (cert ~cn:"device C" 23) 21 in
  let detections a = List.length (Option.get (A.mitm a)) in
  let case what before after ~before_found ~after_found =
    let a0, a1 =
      check_delta ~what [ ([ scan before ], []) ] [ ([ scan after ], []) ]
    in
    Alcotest.(check int) (what ^ ": parent detections") before_found
      (detections a0);
    Alcotest.(check int) (what ^ ": detections") after_found (detections a1)
  in
  (* 9 -> 10 addresses; two subjects and 6 of 10 records invalid *)
  case "ten addresses"
    (rimon_records ~ips:(range 1 4) valid @ rimon_records ~ips:(range 5 9) b)
    [ record 10 b ] ~before_found:0 ~after_found:1;
  (* 1 -> 2 subjects; ten addresses, all invalid *)
  case "two subjects" (rimon_records ~ips:(range 1 10) b) [ record 3 c ]
    ~before_found:0 ~after_found:1;
  (* invalid share 5/10 -> 6/11 *)
  case "invalid majority"
    (rimon_records ~ips:(range 1 5) valid @ rimon_records ~ips:(range 6 10) b)
    [ record 11 c ] ~before_found:0 ~after_found:1;
  (* and back: 6/11 -> 6/13, the detection is withdrawn *)
  case "invalid minority"
    (rimon_records ~ips:(range 1 5) valid @ rimon_records ~ips:(range 6 11) b)
    [ record 12 valid; record 13 valid ] ~before_found:1 ~after_found:0

let test_bitflip_neighbours_both_orders () =
  let odd seed = N.add (N.shift_left (N.of_int seed) 40) (N.of_int 0x1235) in
  let flip n i =
    if N.testbit n i then N.sub n (N.shift_left N.one i)
    else N.add n (N.shift_left N.one i)
  in
  let near a = snd (Option.get (A.bit_error_triage a)) in
  (* an old suspect (even, so not well formed) gains a fresh neighbour *)
  let s = N.shift_left (odd 31) 1 in
  let a0, a1 =
    check_delta ~what:"old suspect, fresh neighbour"
      ~findings0:[ (s, N.of_int 2) ] ~findings1:[ (s, N.of_int 2) ]
      [ ([], [ odd 32; s ]) ] [ ([], [ flip s 17 ]) ]
  in
  Alcotest.(check (pair int int)) "no neighbour, then one" (0, 1)
    (near a0, near a1);
  (* a fresh suspect whose neighbour is old *)
  let m = odd 33 in
  let _, a1 =
    check_delta ~what:"fresh suspect, old neighbour"
      [ ([], [ m ]) ]
      [ ([], [ flip m 0 ]) ]
      ~findings1:[ (flip m 0, N.of_int 2) ]
  in
  Alcotest.(check int) "fresh suspect is near" 1 (near a1);
  (* an old modulus becomes a suspect finding with a fresh neighbour;
     an old suspect's fresh "neighbour" one bit beyond its top is not a
     flip bitflip_neighbor tries *)
  let e = N.shift_left (odd 34) 1 in
  let _, a1 =
    check_delta ~what:"old modulus flagged late"
      ~findings0:[ (s, N.of_int 2) ]
      ~findings1:[ (e, N.of_int 2); (s, N.of_int 2) ]
      [ ([], [ e; s ]) ]
      [ ([], [ flip e 5; flip s (N.num_bits s + 1) ]) ]
  in
  Alcotest.(check int) "only the in-range flip counts" 1 (near a1)

(* A pass with no parent result runs in full: here every pass but
   bit-errors, which ran alone in the parent. *)
let test_delta_without_parent_result () =
  let a = cert ~o:"Fortinet" ~cn:"FGT60" 41 in
  ignore
    (check_delta ~only:[ "bit-errors" ] ~what:"parent ran one pass"
       [ ([ scan [ record 1 a ] ], []) ]
       [ ([ scan [ record 2 a; record 3 (cert ~o:"ZyXEL" ~cn:"zw" 42) ] ], []) ])

(* The EXTENDS column of 'weakkeys passes' says delta exactly for the
   passes whose results carry a delta rule's state. *)
let test_extends_column () =
  Alcotest.(check (list string)) "delta passes"
    [ "subject-rules"; "bit-errors"; "mitm-substitution" ]
    (names (List.filter (fun p -> FPass.extends p = "delta") R.builtin));
  let ctx = ctx_of [ ([ scan [ record 1 (cert ~cn:"x" 51) ] ], []) ] in
  let results = (R.run ctx R.builtin).R.results in
  List.iter
    (fun p ->
      let r = List.assoc p.FPass.name results in
      Alcotest.(check string)
        (p.FPass.name ^ " carries state iff listed as delta")
        (FPass.extends p)
        (if Option.is_some r.FPass.resume then "delta" else "full"))
    R.builtin

let tests =
  [
    Alcotest.test_case "rank precedence" `Quick test_rank_precedence;
    Alcotest.test_case "weighted majority and tie break" `Quick
      test_weighted_majority_and_tie_break;
    Alcotest.test_case "vendorless evidence" `Quick
      test_vendorless_evidence_is_not_a_vote;
    Alcotest.test_case "model of" `Quick test_model_of;
    Alcotest.test_case "builtin schedule" `Quick test_builtin_schedule;
    Alcotest.test_case "select closes over deps" `Quick
      test_select_closes_over_deps;
    Alcotest.test_case "select unknown pass" `Quick test_select_unknown_pass;
    Alcotest.test_case "schedule cycle" `Quick test_schedule_cycle;
    Alcotest.test_case "pooled equals sequential" `Quick
      test_pooled_equals_sequential;
    Alcotest.test_case "wave runs concurrently" `Quick
      test_wave_runs_concurrently;
      Alcotest.test_case "delta: title arrives late" `Quick
      test_snapgear_title_arrives_late;
    Alcotest.test_case "delta: rimon thresholds cross late" `Quick
      test_rimon_thresholds_cross_late;
    Alcotest.test_case "delta: bit-flip neighbours both orders" `Quick
      test_bitflip_neighbours_both_orders;
    Alcotest.test_case "delta: no parent result runs full" `Quick
      test_delta_without_parent_result;
    Alcotest.test_case "passes extends column" `Quick test_extends_column;
  ]
