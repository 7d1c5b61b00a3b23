(* Tests for the benchmark's own code: the sweep generator and its
   oracle, span arithmetic, operation accounting, and that every
   workload's output check rejects a corrupted output. *)

open E2ebench
module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd

let small =
  {
    Sweep_corpus.moduli = 96;
    primes_per = 4;
    prime_bits = 31;
    plant_every = 8;
    deltas = 6;
    delta_size = 4;
  }

let is_ok = function Ok () -> true | Error _ -> false

(* ---------------- sweep generator ---------------- *)

let test_distinct () =
  List.iter
    (fun seed ->
      let g = Sweep_corpus.generate small ~seed in
      let all = Sweep_corpus.all g in
      let keys = Array.to_list (Array.map N.to_hex all) in
      Alcotest.(check int) "distinct moduli" (Array.length all)
        (List.length (List.sort_uniq compare keys));
      Alcotest.(check int) "size" (96 + (6 * 4)) (Array.length all))
    [ 1; 2; 3 ]

let test_default_shape () =
  let g = Sweep_corpus.generate Sweep_corpus.default ~seed:7 in
  Array.iter
    (fun m ->
      let b = N.num_bits m in
      Alcotest.(check bool) "about 1024 bits" true (b >= 1016 && b <= 1023))
    g.Sweep_corpus.base;
  Alcotest.(check string) "deterministic" (Sweep_corpus.digest g)
    (Sweep_corpus.digest (Sweep_corpus.generate Sweep_corpus.default ~seed:7))

let test_oracle_is_naive () =
  List.iter
    (fun seed ->
      let g = Sweep_corpus.generate small ~seed in
      let all = Sweep_corpus.all g in
      let hits = BG.naive_pairwise_hits all in
      let from_pairs =
        List.concat_map (fun (i, j, d) -> [ (i, N.to_hex d); (j, N.to_hex d) ]) hits
        |> List.sort_uniq compare
      in
      let oracle =
        Sweep_corpus.expected g ~upto:(Array.length all)
        |> List.map (fun (i, d) -> (i, N.to_hex d))
      in
      Alcotest.(check bool) "plants something" true (oracle <> []);
      Alcotest.(check (list (pair int string))) "oracle = naive pairwise hits"
        from_pairs oracle)
    [ 1; 2; 3; 4 ]

let test_sweep_check () =
  let g = Sweep_corpus.generate small ~seed:5 in
  let n = small.Sweep_corpus.moduli in
  let base = g.Sweep_corpus.base in
  let found = BG.factor_batch base in
  Alcotest.(check bool) "true findings pass" true
    (is_ok (Sweep_corpus.check g ~upto:n found));
  (* Every delta prefix too: a growing corpus against the oracle. *)
  let all = Sweep_corpus.all g in
  for d = 1 to small.Sweep_corpus.deltas do
    let upto = n + (d * small.Sweep_corpus.delta_size) in
    Alcotest.(check bool) "prefix passes" true
      (is_ok (Sweep_corpus.check g ~upto (BG.factor_batch (Array.sub all 0 upto))))
  done;
  let corrupt =
    [
      ("dropped", List.tl found);
      ( "wrong divisor",
        List.map (fun (f : BG.finding) -> { f with BG.divisor = f.BG.modulus }) found );
      ( "spurious",
        { BG.index = 1; modulus = base.(1); divisor = N.of_int 3 } :: found );
    ]
  in
  List.iter
    (fun (what, fs) ->
      Alcotest.(check bool) what false (is_ok (Sweep_corpus.check g ~upto:n fs)))
    corrupt

(* ---------------- spans ---------------- *)

let sp id name parent start stop = { Trace.id; name; parent; start; stop }

let test_self_time () =
  let root = sp 0 "root" None 0. 10. in
  let a = sp 1 "a" (Some 0) 1. 4. in
  let a1 = sp 2 "a1" (Some 1) 2. 3. in
  let b = sp 3 "b" (Some 0) 5. 9. in
  let b' = sp 4 "b" (Some 0) 8. 9.5 in
  let spans = [ root; a; a1; b; b' ] in
  let eps = Alcotest.float 1e-9 in
  (* Children b and b' overlap on [8, 9]: covered once. *)
  Alcotest.check eps "root self" (10. -. 3. -. 4.5) (Trace.self_time spans root);
  Alcotest.check eps "a self" 2. (Trace.self_time spans a);
  Alcotest.check eps "leaf self" 1. (Trace.self_time spans a1);
  Alcotest.check eps "total by name" 5.5 (Trace.total spans "b");
  Alcotest.check eps "self total" 5.5 (Trace.self_total spans "b");
  Alcotest.(check int) "count" 2 (Trace.count spans "b");
  Alcotest.check eps "coverage" 0.75 (Trace.coverage spans ~parent:"root");
  Alcotest.(check bool) "no parent" true
    (Float.is_nan (Trace.coverage spans ~parent:"absent"))

let test_recorder () =
  let t = Trace.create ~enabled:true in
  let v =
    Trace.span t "outer" (fun () ->
        let x = Trace.span t "inner" (fun () -> 20) in
        (try Trace.span t "fails" (fun () -> failwith "boom") with Failure _ -> ());
        x + 1)
  in
  Alcotest.(check int) "value" 21 v;
  let spans = Trace.spans t in
  Alcotest.(check (list string)) "start order" [ "outer"; "inner"; "fails" ]
    (List.map (fun s -> s.Trace.name) spans);
  let outer = List.hd spans in
  List.iter
    (fun s ->
      if s.Trace.name <> "outer" then
        Alcotest.(check (option int)) "nested" (Some outer.Trace.id) s.Trace.parent)
    spans;
  let off = Trace.create ~enabled:false in
  Alcotest.(check int) "disabled runs body" 3 (Trace.span off "x" (fun () -> 3));
  Alcotest.(check int) "disabled records nothing" 0 (List.length (Trace.spans off))

(* ---------------- operation accounting ---------------- *)

let test_failed_is_not_a_sample () =
  let ops = Ops.create () in
  ignore (Ops.run ops (fun () -> 1) ~check:(fun _ -> Ok ()));
  Alcotest.(check bool) "failing check gives None" true
    (Ops.run ops (fun () -> 2) ~check:(fun _ -> Error "corrupt") = None);
  Alcotest.(check bool) "raising op gives None" true
    (Ops.run ops (fun () -> failwith "down") ~check:(fun _ -> Ok ()) = None);
  Alcotest.(check bool) "raising check gives None" true
    (Ops.run ops (fun () -> 3) ~check:(fun _ -> raise Not_found) = None);
  Alcotest.(check int) "attempted" 4 (Ops.attempted ops);
  Alcotest.(check int) "failed" 3 (Ops.failed ops);
  Alcotest.(check int) "one sample" 1 (List.length (Ops.samples ops));
  Alcotest.(check (list string)) "first reason" [ "corrupt" ]
    [ List.hd (Ops.errors ops) ];
  Alcotest.(check (float 0.)) "median" 2. (Ops.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (Ops.median [ 4.; 1.; 3.; 2. ])

(* ---------------- study / monthly checks ---------------- *)

(* A tiny corpus of known two-prime moduli: 0 and 1 share 101, 2 is
   clean, 3 is a modulus the generator never made. *)
let primes = [| 101; 103; 107; 109; 113 |]
let nat = N.of_int
let corpus = [| nat (101 * 103); nat (101 * 107); nat (109 * 113); nat (127 * 131) |]

let factors_of m =
  let tbl =
    [ (0, 1); (0, 2); (3, 4) ]
    |> List.map (fun (i, j) -> (N.to_hex (nat (primes.(i) * primes.(j))), (nat primes.(i), nat primes.(j))))
  in
  List.assoc_opt (N.to_hex m) tbl

let factorable m = N.equal m corpus.(0) || N.equal m corpus.(1)

let test_study_check () =
  let found = BG.factor_batch corpus in
  let check ?(factorable = factorable) fs =
    is_ok (Checks.findings_match_truth ~factors_of ~factorable corpus fs)
  in
  Alcotest.(check bool) "batch GCD passes" true (check found);
  Alcotest.(check bool) "missed" false (check (List.tl found));
  Alcotest.(check bool) "spurious" false
    (check ({ BG.index = 2; modulus = corpus.(2); divisor = nat 109 } :: found));
  Alcotest.(check bool) "non-dividing divisor" false
    (check
       (List.map (fun (f : BG.finding) -> { f with BG.divisor = nat 7 }) found));
  Alcotest.(check bool) "not ground-truth factorable" false
    (check ~factorable:(fun _ -> false) found);
  Alcotest.(check bool) "unknown modulus with a valid divisor" true
    (check ({ BG.index = 3; modulus = corpus.(3); divisor = nat 127 } :: found));
  Alcotest.(check (list bool)) "corpus truth" [ true; true; false; false ]
    (Array.to_list (Checks.corpus_truth ~factors_of corpus));
  Alcotest.(check bool) "report digest mismatch" false
    (is_ok (Checks.same_text ~what:"report digest" "a1" "b2"))

let test_monthly_check () =
  let found = BG.factor_batch corpus in
  (* Same moduli under other ids: still equal. *)
  let renumbered = List.map (fun (f : BG.finding) -> { f with BG.index = f.BG.index + 10 }) found in
  Alcotest.(check bool) "ids do not matter" true
    (is_ok (Checks.same_findings found renumbered));
  Alcotest.(check bool) "a lost finding" false
    (is_ok (Checks.same_findings found (List.tl found)));
  Alcotest.(check bool) "Table 1 differs" false
    (is_ok (Checks.same_text ~what:"Table 1" "hosts 10" "hosts 11"))

let () =
  Alcotest.run "e2ebench"
    [
      ( "sweep corpus",
        [
          Alcotest.test_case "distinct moduli" `Quick test_distinct;
          Alcotest.test_case "default shape" `Quick test_default_shape;
          Alcotest.test_case "oracle = naive pairwise hits" `Quick test_oracle_is_naive;
          Alcotest.test_case "check rejects corrupt findings" `Quick test_sweep_check;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time on nested spans" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder;
        ] );
      ( "ops",
        [ Alcotest.test_case "failed is not a sample" `Quick test_failed_is_not_a_sample ] );
      ( "checks",
        [
          Alcotest.test_case "study check" `Quick test_study_check;
          Alcotest.test_case "monthly check" `Quick test_monthly_check;
        ] );
    ]
