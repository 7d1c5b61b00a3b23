module N = Bignum.Nat

exception Corrupt of string

let write_int oc n =
  if n < 0 || n > 0x3FFFFFFF then invalid_arg "Corpus.Io.write_int: out of range";
  output_binary_int oc n

let read_int ic =
  let n = input_binary_int ic in
  if n < 0 then raise (Corrupt "negative length field");
  n

let write_string oc s =
  write_int oc (String.length s);
  output_string oc s

(* Bytes left in a checkpoint channel, or [None] for a non-seekable
   one (Sys_error from the length probe), where the readers fall back
   to their End_of_file checks. *)
let remaining ic =
  match in_channel_length ic with
  | total -> Some (total - pos_in ic)
  | exception Sys_error _ -> None

let read_count ~min_bytes_each ic =
  if min_bytes_each < 1 then
    invalid_arg "Corpus.Io.read_count: min_bytes_each must be positive";
  let n = read_int ic in
  (* A fuzzed header can claim a billion records: reject a count the
     remaining bytes cannot hold before anyone allocates for it. *)
  (match remaining ic with
  | Some left when n > left / min_bytes_each ->
    raise (Corrupt "record count overruns remaining input")
  | _ -> ());
  n

let expect_end ic =
  match remaining ic with
  | Some left when left > 0 ->
    raise (Corrupt "trailing bytes after the last record")
  | _ -> ()

let read_string ic =
  let len = read_int ic in
  (* A fuzzed or truncated header can claim up to a gigabyte: compare
     the prefix against what is actually left in the channel before
     attempting the allocation. *)
  (match remaining ic with
  | Some left when len > left ->
    raise (Corrupt "length prefix overruns remaining input")
  | _ -> ());
  try really_input_string ic len
  with End_of_file -> raise (Corrupt "truncated string record")

let write_atomic path write =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  let committed = ref false in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      if not !committed then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      write oc;
      close_out oc;
      Sys.rename tmp path;
      committed := true)

let write_nat oc n = write_string oc (N.to_bytes_be n)
let read_nat ic = N.of_bytes_be (read_string ic)
