(* Corpus.Store: dense insertion-order ids over interned values; and
   Corpus.Io.write_atomic: the one tmp-and-rename writer. *)

module N = Bignum.Nat
module Store = Corpus.Store

let nat = Alcotest.testable N.pp N.equal

(* Distinct values of one to three limbs. *)
let value i = N.add (N.shift_left (N.of_int i) (37 * (i mod 3))) (N.of_int i)

let test_dense_ids () =
  let s = Store.create () in
  Alcotest.(check int) "empty" 0 (Store.size s);
  for i = 0 to 99 do
    Alcotest.(check int) "next id" i (Store.intern s (value i))
  done;
  Alcotest.(check int) "size" 100 (Store.size s);
  for i = 0 to 99 do
    Alcotest.check nat "get returns the value" (value i) (Store.get s i)
  done

let test_reintern () =
  let s = Store.create () in
  let ids = Array.init 20 (fun i -> Store.intern s (value i)) in
  Array.iteri
    (fun i id ->
      (* a fresh copy, equal but not physically the stored value *)
      let copy = N.of_bytes_be (N.to_bytes_be (value i)) in
      Alcotest.(check int) "same id" id (Store.intern s copy);
      Alcotest.(check (option int)) "find" (Some id) (Store.find s copy))
    ids;
  Alcotest.(check int) "no growth" 20 (Store.size s)

let test_absent () =
  let s = Store.create () in
  ignore (Store.intern s (value 1));
  Alcotest.(check (option int)) "find absent" None (Store.find s (value 2));
  Alcotest.(check bool) "mem absent" false (Store.mem s (value 2));
  Alcotest.(check bool) "mem present" true (Store.mem s (value 1));
  Alcotest.(check (option int)) "find zero" None (Store.find s N.zero);
  Alcotest.(check int) "lookups insert nothing" 1 (Store.size s)

let test_get_out_of_range () =
  let s = Store.create () in
  ignore (Store.intern s (value 0));
  List.iter
    (fun id ->
      Alcotest.check_raises (Printf.sprintf "get %d" id)
        (Invalid_argument "Corpus.Store.get: id out of range")
        (fun () -> ignore (Store.get s id)))
    [ -1; 1; 64 ]

(* A store sized for 4 grows its value array and its index many times
   over; every id and lookup survives. *)
let test_growth () =
  let s = Store.create ~size:4 () in
  let n = 10_007 in
  for i = 0 to n - 1 do
    Alcotest.(check int) "grown id" i (Store.intern s (value i))
  done;
  Alcotest.(check int) "size" n (Store.size s);
  for i = 0 to n - 1 do
    if Store.find s (value i) <> Some i then Alcotest.failf "lost value %d" i;
    if not (N.equal (Store.get s i) (value i)) then
      Alcotest.failf "wrong value at %d" i
  done;
  Alcotest.(check (option int)) "absent after growth" None
    (Store.find s (value n))

let test_to_array () =
  let s = Store.create () in
  let order = [| 5; 3; 9; 3; 0; 5; 7 |] in
  Array.iter (fun i -> ignore (Store.intern s (value i))) order;
  Alcotest.(check (array nat)) "first occurrences in id order"
    (Array.map value [| 5; 3; 9; 0; 7 |])
    (Store.to_array s);
  let seen = ref [] in
  Store.iter (fun id m -> seen := (id, m) :: !seen) s;
  Alcotest.(check (list (pair int nat))) "iter in id order"
    (List.mapi (fun id i -> (id, value i)) [ 5; 3; 9; 0; 7 ])
    (List.rev !seen);
  let a = Store.to_array s in
  a.(0) <- N.zero;
  Alcotest.check nat "to_array is a fresh array" (value 5) (Store.get s 0)

(* A copy keeps every id and value, and the two stores grow apart.
   Each side first interns a few values, within the capacity the copy
   was taken at, so an array the two still shared would show; then
   the copy interns past a resize of its index and value array. *)
let test_copy () =
  let s = Store.create ~size:4 () in
  for i = 0 to 49 do
    ignore (Store.intern s (value i))
  done;
  let c = Store.copy s in
  (* ids [0, n) hold [value 0 .. value (n-1)], and the store has [size] *)
  let check_holds what st ~size n =
    Alcotest.(check int) (what ^ ": size") size (Store.size st);
    for i = 0 to n - 1 do
      if Store.find st (value i) <> Some i then
        Alcotest.failf "%s: lost value %d" what i;
      if not (N.equal (Store.get st i) (value i)) then
        Alcotest.failf "%s: wrong value at %d" what i
    done
  in
  check_holds "copy" c ~size:50 50;
  for i = 50 to 54 do
    Alcotest.(check int) "copy assigns the next id" i (Store.intern c (value i))
  done;
  check_holds "original after interning into the copy" s ~size:50 50;
  Alcotest.(check (option int)) "original misses the copy's values" None
    (Store.find s (value 52));
  Alcotest.check_raises "original has no id 50"
    (Invalid_argument "Corpus.Store.get: id out of range") (fun () ->
      ignore (Store.get s 50));
  Alcotest.(check int) "original assigns its own next id" 50
    (Store.intern s (value 1000));
  check_holds "copy after interning into the original" c ~size:55 55;
  Alcotest.(check (option int)) "copy misses the original's values" None
    (Store.find c (value 1000));
  for i = 55 to 299 do
    Alcotest.(check int) "copy keeps growing" i (Store.intern c (value i))
  done;
  check_holds "copy after growing" c ~size:300 300;
  check_holds "original after the copy grew" s ~size:51 50;
  Alcotest.(check (option int)) "original keeps its own id 50" (Some 50)
    (Store.find s (value 1000));
  Alcotest.check nat "original's value at id 50" (value 1000) (Store.get s 50)

let with_temp_path f =
  let path = Filename.temp_file "weakkeys-atomic" ".bin" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read path = In_channel.with_open_bin path In_channel.input_all

(* A completed write replaces the file; a write that raises leaves the
   old contents and no temporary file, and re-raises. *)
let test_write_atomic () =
  with_temp_path (fun path ->
      Corpus.Io.write_atomic path (fun oc -> output_string oc "old");
      Alcotest.(check string) "written" "old" (read path);
      Alcotest.check_raises "writer's exception re-raised" Exit (fun () ->
          Corpus.Io.write_atomic path (fun oc ->
              output_string oc "half";
              raise Exit));
      Alcotest.(check string) "old contents kept" "old" (read path);
      Alcotest.(check bool) "no temporary left" false
        (Sys.file_exists (path ^ ".tmp"));
      Corpus.Io.write_atomic path (fun oc -> output_string oc "new");
      Alcotest.(check string) "replaced" "new" (read path))

let tests =
  [
    Alcotest.test_case "store dense ids" `Quick test_dense_ids;
    Alcotest.test_case "store re-intern" `Quick test_reintern;
    Alcotest.test_case "store absent values" `Quick test_absent;
    Alcotest.test_case "store get out of range" `Quick test_get_out_of_range;
    Alcotest.test_case "store growth" `Quick test_growth;
    Alcotest.test_case "store to_array" `Quick test_to_array;
    Alcotest.test_case "io write_atomic" `Quick test_write_atomic;
    Alcotest.test_case "store copy" `Quick test_copy;
  ]
