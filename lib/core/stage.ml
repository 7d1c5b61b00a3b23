type timing = { stage : string; seconds : float; restored : bool }

type ctx = {
  progress : string -> unit;
  dir : string option;
  mutable timings : timing list; (* reverse execution order *)
}

let ctx ?(progress = fun _ -> ()) ?dir () = { progress; dir; timings = [] }
let timings ctx = List.rev ctx.timings

let record ctx stage seconds restored =
  ctx.timings <- { stage; seconds; restored } :: ctx.timings;
  ctx.progress
    (Printf.sprintf "stage %-12s %s%.2fs" stage
       (if restored then "restored from checkpoint in " else "")
       seconds)

let note ctx stage ~seconds = record ctx stage seconds false

let run ctx name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  record ctx name (Unix.gettimeofday () -. t0) false;
  v

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Restore attempt: [None] on any miss — no file, key mismatch, a
   truncated/corrupt record, or bytes left after it (a lowered count
   loads a prefix of the data; a crash mid-write leaves only the .tmp
   behind, but defend anyway). *)
let restore path ~key ~load =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_bin path (fun ic ->
        try
          if String.equal (Corpus.Io.read_string ic) (Lazy.force key) then begin
            let v = load ic in
            Corpus.Io.expect_end ic;
            Some v
          end
          else None
        with Corpus.Io.Corrupt _ | End_of_file -> None)

let run_cached ctx name ~key ~save ~load f =
  match ctx.dir with
  | None -> run ctx name f
  | Some dir ->
    let path = Filename.concat dir (name ^ ".ckpt") in
    let t0 = Unix.gettimeofday () in
    (match restore path ~key ~load with
     | Some v ->
       record ctx name (Unix.gettimeofday () -. t0) true;
       v
     | None ->
       let v = f () in
       mkdir_p dir;
       Corpus.Io.write_atomic path (fun oc ->
           Corpus.Io.write_string oc (Lazy.force key);
           save oc v);
       record ctx name (Unix.gettimeofday () -. t0) false;
       v)
