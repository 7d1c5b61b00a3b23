(* The CLI's raw-moduli path, through the built binary: ingest/extend
   against the naive oracle, checkpoint errors, the keygen round trip
   and malformed input. *)

module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd

let cli_exe = Filename.concat (Filename.concat ".." "bin") "weakkeys_cli.exe"
let ( // ) = Filename.concat

let with_tmpdir f =
  let dir = Filename.temp_file "weakkeys_cli_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [cmd] is a shell command line whose words are already quoted;
   returns the exit code, stdout and stderr. *)
let run_in dir cmd =
  let out = dir // "stdout" and err = dir // "stderr" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out)
         (Filename.quote err))
  in
  (code, read_file out, read_file err)

let cli args = String.concat " " (List.map Filename.quote (cli_exe :: args))

(* What [ingest]/[extend] print for a corpus: the naive O(n^2) findings
   in index order. *)
let naive_output moduli =
  let fs = BG.naive moduli in
  String.concat ""
    (Printf.sprintf "# %d of %d moduli share factors\n" (List.length fs)
       (Array.length moduli)
    :: List.map
         (fun (f : BG.finding) ->
           Printf.sprintf "%s divisor=%s\n" (N.to_hex f.BG.modulus)
             (N.to_hex f.BG.divisor))
         fs)

(* 25 coprime moduli, then 20 that share one of 7 primes in a cycle. *)
let moduli =
  let ps = Array.map N.of_int (Bignum.Prime.first_n_primes 200) in
  let p i = ps.(80 + i) in
  Array.append
    (Array.init 25 (fun k -> N.mul (p (2 * k)) (p ((2 * k) + 1))))
    (Array.init 20 (fun k -> N.mul (p (60 + (k mod 7))) (p (80 + k))))

let has_hex_letter s =
  String.exists (function 'a' .. 'f' -> true | _ -> false) s

(* Every input format the reader takes: 0x hex, bare hex, decimal,
   plus a comment, a blank line and a repeat. *)
let moduli_file ms =
  let line i m =
    let hex = N.to_hex m in
    match i mod 3 with
    | 0 -> "0x" ^ hex
    | 1 -> N.to_string m
    | _ -> if has_hex_letter hex then hex else "0x" ^ hex
  in
  String.concat "\n"
    (("# test moduli" :: "" :: Array.to_list (Array.mapi line ms))
    @ [ line 0 ms.(0); "" ])

let base = Array.sub moduli 0 35
let more = Array.sub moduli 30 15

let ingest_extend shards () =
  with_tmpdir (fun dir ->
      let ckpt = dir // "ck" in
      write_file (dir // "base.txt") (moduli_file base);
      write_file (dir // "more.txt") (moduli_file more);
      let code, out, _ =
        run_in dir
          (cli ([ "ingest"; "--ckpt"; ckpt; dir // "base.txt" ] @ shards))
      in
      Alcotest.(check int) "ingest exits 0" 0 code;
      Alcotest.(check string) "ingest = naive over base" (naive_output base) out;
      Alcotest.(check (array string)) "one state file" [| "gcd.ckpt" |]
        (Sys.readdir ckpt);
      let code, out, _ =
        run_in dir (cli [ "extend"; "--ckpt"; ckpt; dir // "more.txt" ])
      in
      Alcotest.(check int) "extend exits 0" 0 code;
      Alcotest.(check string) "extend = naive over the union"
        (naive_output moduli) out)

(* Exit 2, nothing on stdout, exactly one line on stderr. *)
let check_one_line_error what (code, out, err) =
  Alcotest.(check int) (what ^ ": exit 2") 2 code;
  Alcotest.(check string) (what ^ ": no stdout") "" out;
  Alcotest.(check int)
    (what ^ ": one stderr line")
    1
    (List.length (String.split_on_char '\n' (String.trim err)));
  Alcotest.(check bool)
    (what ^ ": names the tool")
    true
    (String.starts_with ~prefix:"weakkeys: " err)

let bad_checkpoints () =
  with_tmpdir (fun dir ->
      let ckpt = dir // "ck" in
      write_file (dir // "base.txt") (moduli_file base);
      let extend () =
        run_in dir (cli [ "extend"; "--ckpt"; ckpt; dir // "base.txt" ])
      in
      check_one_line_error "no directory" (extend ());
      Unix.mkdir ckpt 0o700;
      check_one_line_error "no gcd.ckpt" (extend ());
      write_file (ckpt // "incremental.ckpt") "old";
      check_one_line_error "older-format file" (extend ());
      Sys.remove (ckpt // "incremental.ckpt");
      let code, _, _ =
        run_in dir (cli [ "ingest"; "--ckpt"; ckpt; dir // "base.txt" ])
      in
      Alcotest.(check int) "ingest exits 0" 0 code;
      let good = read_file (ckpt // "gcd.ckpt") in
      write_file (ckpt // "gcd.ckpt")
        (String.sub good 0 (String.length good / 2));
      check_one_line_error "truncated gcd.ckpt" (extend ());
      (* The stream starts with the tag: a 4-byte length, then "flat". *)
      let flipped = Bytes.of_string good in
      Bytes.set flipped 4 (Char.chr (Char.code good.[4] lxor 0x20));
      write_file (ckpt // "gcd.ckpt") (Bytes.to_string flipped);
      check_one_line_error "flipped tag byte" (extend ());
      write_file (ckpt // "gcd.ckpt") good;
      let code, _, _ = extend () in
      Alcotest.(check int) "the intact file still extends" 0 code)

(* At 32 bits a few moduli print as hex without a letter (key 245 of
   these 250); read back as decimal they would be other numbers. *)
let keygen_round_trip () =
  with_tmpdir (fun dir ->
      let keys = dir // "keys.txt" in
      let code, out, _ =
        run_in dir
          (cli [ "keygen"; "-n"; "250"; "--bits"; "32"; "--boot-entropy"; "6" ]
          ^ " | tee " ^ Filename.quote keys ^ " | "
          ^ cli [ "ingest"; "--ckpt"; dir // "ck"; "-" ])
      in
      Alcotest.(check int) "pipeline exits 0" 0 code;
      let lines =
        List.filter (( <> ) "") (String.split_on_char '\n' (read_file keys))
      in
      Alcotest.(check int) "250 keys" 250 (List.length lines);
      let hex_of line =
        match String.starts_with ~prefix:"0x" line with
        | true -> String.sub line 2 (String.length line - 2)
        | false -> Alcotest.failf "keygen line without 0x: %s" line
      in
      Alcotest.(check bool) "some key prints without a hex letter" true
        (List.exists (fun l -> not (has_hex_letter (hex_of l))) lines);
      let made = BG.dedup (Array.of_list (List.map N.of_string lines)) in
      Alcotest.(check string) "ingest sees keygen's moduli"
        (naive_output made) out)

let bad_input () =
  with_tmpdir (fun dir ->
      let file = dir // "bad.txt" in
      write_file file "0x10001\n# comment\nzz12\n17\n";
      let code, out, err =
        run_in dir (cli [ "ingest"; "--ckpt"; dir // "ck"; file ])
      in
      check_one_line_error "malformed line" (code, out, err);
      Alcotest.(check bool) "names file and line" true
        (String.starts_with ~prefix:("weakkeys: " ^ file ^ ":3:") err);
      Alcotest.(check bool) "no checkpoint written" false
        (Sys.file_exists (dir // "ck"));
      check_one_line_error "factor, malformed line"
        (run_in dir (cli [ "factor"; file ]));
      check_one_line_error "missing file"
        (run_in dir (cli [ "factor"; dir // "absent.txt" ]));
      check_one_line_error "keygen --bits 24"
        (run_in dir (cli [ "keygen"; "--bits"; "24" ])))

(* An out-of-range number is refused before any world is built. *)
let bad_table_figure () =
  with_tmpdir (fun dir ->
      let code, out, err = run_in dir (cli [ "table"; "9" ]) in
      check_one_line_error "table 9" (code, out, err);
      Alcotest.(check string) "table 9 message"
        "weakkeys: no such table 9 (1-5)\n" err;
      check_one_line_error "figure 0" (run_in dir (cli [ "figure"; "0" ])))

let tests =
  [
    Alcotest.test_case "ingest + extend = naive over union" `Quick
      (ingest_extend []);
    Alcotest.test_case "sharded ingest + extend = naive over union" `Quick
      (ingest_extend [ "--shards"; "4" ]);
    Alcotest.test_case "bad checkpoints are one-line errors" `Quick
      bad_checkpoints;
    Alcotest.test_case "keygen | ingest - round trip" `Quick keygen_round_trip;
    Alcotest.test_case "malformed input is a one-line error" `Quick bad_input;
    Alcotest.test_case "table 9 / figure 0 are one-line errors" `Quick
      bad_table_figure;
  ]
