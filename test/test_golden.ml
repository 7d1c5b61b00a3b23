(* Golden-report regression tests.

   The full [Report] text for fixed small worlds is snapshotted under
   test/golden/ and asserted byte-equal here. The snapshots were
   generated from the pre-attribution-engine pipeline, so they pin the
   refactor to byte-identical output; they also pin pooled multi-pass
   execution to the [domains:1] result.

   Regenerate (after an intentional output change) with:

     WEAKKEYS_GOLDEN_UPDATE=$PWD/test/golden dune exec test/test_main.exe -- test golden
*)

module P = Weakkeys.Pipeline
module R = Weakkeys.Report

(* [dune runtest] runs in _build/default/test (snapshots staged by the
   dune deps glob); a manual [dune exec test/test_main.exe] runs from
   the project root. Resolve whichever is present. *)
let golden_dir =
  if Sys.file_exists "golden" && Sys.is_directory "golden" then "golden"
  else Filename.concat "test" "golden"

let golden_file name = Filename.concat golden_dir (name ^ ".txt")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc s)

(* Every changed line, numbered, from a line-level longest-common-
   subsequence diff: "-N: text" is line N of the expected text, gone
   from the actual one; "+N: text" is line N of the actual text, new. *)
let changed_lines expected actual =
  let a = Array.of_list (String.split_on_char '\n' expected) in
  let b = Array.of_list (String.split_on_char '\n' actual) in
  let n = Array.length a and m = Array.length b in
  let lcs = Array.make_matrix (n + 1) (m + 1) 0 in
  for i = n - 1 downto 0 do
    for j = m - 1 downto 0 do
      lcs.(i).(j) <-
        (if String.equal a.(i) b.(j) then lcs.(i + 1).(j + 1) + 1
         else Stdlib.max lcs.(i + 1).(j) lcs.(i).(j + 1))
    done
  done;
  let buf = Buffer.create 1024 in
  let rec walk i j =
    if i < n && j < m && String.equal a.(i) b.(j) then walk (i + 1) (j + 1)
    else if i < n && (j = m || lcs.(i + 1).(j) >= lcs.(i).(j + 1)) then begin
      Buffer.add_string buf (Printf.sprintf "-%d: %s\n" (i + 1) a.(i));
      walk (i + 1) j
    end
    else if j < m then begin
      Buffer.add_string buf (Printf.sprintf "+%d: %s\n" (j + 1) b.(j));
      walk i (j + 1)
    end
  in
  walk 0 0;
  Buffer.contents buf

(* Byte-equality with a readable diagnostic: the first differing byte
   with its context, then every changed line. A raw Alcotest string
   check on a 30k-character report is unreadable. *)
let check_equal_text what expected actual =
  if not (String.equal expected actual) then begin
    let n = Stdlib.min (String.length expected) (String.length actual) in
    let i = ref 0 in
    while !i < n && expected.[!i] = actual.[!i] do
      incr i
    done;
    let context s =
      let from = Stdlib.max 0 (!i - 80) in
      let len = Stdlib.min (String.length s - from) 160 in
      String.sub s from len
    in
    Alcotest.failf
      "%s: output differs at byte %d (lengths %d vs %d)\n\
       --- expected ---\n%s\n--- actual ---\n%s\n\
       --- changed lines ---\n%s"
      what !i
      (String.length expected)
      (String.length actual)
      (context expected) (context actual)
      (changed_lines expected actual)
  end

let check_golden name report =
  match Sys.getenv_opt "WEAKKEYS_GOLDEN_UPDATE" with
  | Some dir ->
    write_file (Filename.concat dir (name ^ ".txt")) report;
    Printf.printf "updated %s/%s.txt (%d bytes)\n" dir name
      (String.length report)
  | None ->
    let path = golden_file name in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden snapshot %s (run with WEAKKEYS_GOLDEN_UPDATE)"
        path;
    check_equal_text name (read_file path) report

(* Seed "test-world" rides on the shared fixture pipeline; the other
   two seeds get their own (smaller) worlds so three independent seeds
   pin the output. *)
let golden_world seed =
  Netsim.World.build
    { Netsim.World.default_config with Netsim.World.seed; scale = 0.03 }

let test_golden_test_world () =
  let p = Lazy.force Worlds.small_pipeline in
  check_golden "report-test-world" (R.full_report p)

let test_golden_seed_b () =
  let p = P.of_world (golden_world "golden-b") in
  check_golden "report-golden-b" (R.full_report p)

let test_golden_seed_c () =
  let p = P.of_world (golden_world "golden-c") in
  check_golden "report-golden-c" (R.full_report p)

(* Pooled pass execution must equal a fully sequential (domains:1)
   run, byte for byte. *)
let test_domains1_equals_pooled () =
  let world = golden_world "golden-b" in
  let pooled = R.full_report (P.of_world world) in
  let seq = R.full_report (P.of_world ~domains:1 world) in
  check_equal_text "domains:1 vs pooled" seq pooled

let tests =
  [
    Alcotest.test_case "report matches golden (test-world)" `Slow
      test_golden_test_world;
    Alcotest.test_case "report matches golden (golden-b)" `Slow
      test_golden_seed_b;
    Alcotest.test_case "report matches golden (golden-c)" `Slow
      test_golden_seed_c;
    Alcotest.test_case "domains:1 report equals pooled report" `Slow
      test_domains1_equals_pooled;
  ]
