module PT = Product_tree
module Pool = Parallel.Pool
module BG = Batch_gcd
module Inc = Incremental
module Io = Corpus.Io
module Store = Corpus.Store

(* Shard forests restore lazily: [load_dir] only records the file, and
   the first sweep that needs a shard's trees pulls them in. *)
type forest = Loaded of Inc.t | On_disk of string

type slot = { goff : int; size : int; mutable forest : forest }

type t = {
  stride : int;
  total : int;
  slots : slot array;
  findings : BG.finding list; (* global index order *)
  store : Store.t; (* ids are exactly the global sweep indexes *)
  mutable uses : (string * int) list;
      (* strategy name -> job count of the most recent sweep/extend;
         observability only, never persisted *)
}

let default_stride = 65536
let is_pow2 n = n > 0 && n land (n - 1) = 0

let stride_for ~shards n =
  if shards < 1 then
    invalid_arg "Batchgcd.Sharded.stride_for: shards must be >= 1";
  let per = (Stdlib.max n 1 + shards - 1) / shards in
  let rec pow2 s = if s >= per then s else pow2 (2 * s) in
  pow2 1

let resolve_pool pool domains =
  match pool with Some p -> p | None -> Pool.get ?domains ()

let findings t = t.findings
let corpus_size t = t.total
let stride t = t.stride
let shard_count t = Array.length t.slots
let store t = t.store
let corpus t = Store.to_array t.store
let find t m = Store.find t.store m

let backend_uses t =
  List.sort (fun (a, _) (b, _) -> String.compare a b) t.uses

let tally names =
  List.fold_left
    (fun acc name ->
      let n = Option.value ~default:0 (List.assoc_opt name acc) in
      (name, n + 1) :: List.remove_assoc name acc)
    [] names

let loaded_shards t =
  Array.fold_left
    (fun acc slot -> match slot.forest with Loaded _ -> acc + 1 | On_disk _ -> acc)
    0 t.slots

let force slot =
  match slot.forest with
  | Loaded inc -> inc
  | On_disk path ->
      let ic =
        try open_in_bin path
        with Sys_error _ -> raise (Io.Corrupt "shard forest file unreadable")
      in
      let inc =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let inc = Inc.load ic in
            Io.expect_end ic;
            inc)
      in
      if Inc.corpus_size inc <> slot.size then
        raise (Io.Corrupt "shard forest size disagrees with meta");
      slot.forest <- Loaded inc;
      inc

let segment_count t =
  Array.fold_left (fun acc slot -> acc + Inc.segment_count (force slot)) 0 t.slots

(* Findings of one shard, with indexes rebased to the shard. *)
let slice findings goff size =
  List.filter_map
    (fun f ->
      if f.BG.index >= goff && f.BG.index < goff + size then
        Some { f with BG.index = f.BG.index - goff }
      else None)
    findings

let intern_delta store base fresh =
  Array.iteri
    (fun i m ->
      if Store.intern store m <> base + i then
        invalid_arg "Batchgcd.Sharded: moduli must be distinct (dedup first)")
    fresh

(* One single-tree sweep, its tree cut at level log2 [stride]: shard
   offsets are multiples of the stride, so each shard's tree is a
   subtree of the corpus tree, and the levels above the cut are the
   tree over the shard roots. *)
let create ?pool ?domains ?(stride = default_stride) moduli =
  if not (is_pow2 stride) then
    invalid_arg "Batchgcd.Sharded.create: stride must be a power of two";
  let n = Array.length moduli in
  let store = Store.create ~size:(Stdlib.min n 65536) ~stride () in
  intern_delta store 0 moduli;
  let segments, findings =
    BG.factor_forest ?pool ?domains ~segment:stride moduli
  in
  let slots =
    Array.map
      (fun (goff, tree) ->
        let size = Array.length (PT.leaves tree) in
        let inc =
          Inc.of_segments ~findings:(slice findings goff size) [| (0, tree) |]
        in
        { goff; size; forest = Loaded inc })
      segments
  in
  let uses = if n = 0 then [] else [ ("tree", Array.length slots) ] in
  { stride; total = n; slots; findings; store; uses }

(* One corpus-wide view of the forest: every shard's segments
   re-offset by the shard's global base. *)
let flat_view t =
  let segs =
    Array.concat
      (Array.to_list
         (Array.map
            (fun slot ->
              Array.map
                (fun (off, tree) -> (slot.goff + off, tree))
                (Inc.segments (force slot)))
            t.slots))
  in
  Inc.of_segments ~findings:t.findings segs

(* Split the corpus-wide forest back into per-shard slots. Chunking
   respects shard boundaries, so no segment ever straddles one. *)
let reslot t total flat =
  let findings = Inc.findings flat in
  let segs = Inc.segments flat in
  let nshards = (total + t.stride - 1) / t.stride in
  let slots =
    Array.init nshards (fun s ->
        let goff = s * t.stride in
        let size = Stdlib.min t.stride (total - goff) in
        let local =
          Array.to_list (Array.copy segs)
          |> List.filter_map (fun (off, tree) ->
                 if off >= goff && off < goff + size then Some (off - goff, tree)
                 else None)
        in
        let inc =
          Inc.of_segments ~findings:(slice findings goff size)
            (Array.of_list local)
        in
        { goff; size; forest = Loaded inc })
  in
  { t with total; slots; findings }

let extend ?pool ?domains t fresh =
  let nf = Array.length fresh in
  if nf = 0 then t
  else if t.total = 0 then create ?pool ?domains ~stride:t.stride fresh
  else begin
    let pool = resolve_pool pool domains in
    intern_delta t.store t.total fresh;
    (* Chunk the delta at shard boundaries: top up the tail shard,
       then whole strides. Each chunk is folded in by
       [Incremental.extend] over the corpus-wide forest view, so every
       step — and by induction the whole extend — is findings-equal to
       a full recompute. *)
    let room =
      let cap = (t.total + t.stride - 1) / t.stride * t.stride in
      cap - t.total
    in
    let rec chunks off =
      if off >= nf then []
      else
        let len =
          if off = 0 && room > 0 then Stdlib.min room nf
          else Stdlib.min t.stride (nf - off)
        in
        Array.sub fresh off len :: chunks (off + len)
    in
    let parts = chunks 0 in
    let flat =
      List.fold_left (fun acc part -> Inc.extend ~pool acc part) (flat_view t) parts
    in
    let t' = reslot t (t.total + nf) flat in
    t'.uses <-
      tally (List.map (fun part -> Inc.delta_strategy (Array.length part)) parts);
    t'
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "weakkeys-sharded/1"

let write_findings oc findings =
  Io.write_int oc (List.length findings);
  List.iter
    (fun f ->
      Io.write_int oc f.BG.index;
      Io.write_nat oc f.BG.modulus;
      Io.write_nat oc f.BG.divisor)
    findings

(* A finding is its index plus two length-prefixed nats: >= 12 bytes. *)
let read_findings ic total =
  let nf = Io.read_count ~min_bytes_each:12 ic in
  let out = ref [] in
  for _ = 1 to nf do
    let index = Io.read_int ic in
    if index < 0 || index >= total then
      raise (Io.Corrupt "finding index out of corpus range");
    let modulus = Io.read_nat ic in
    let divisor = Io.read_nat ic in
    out := { BG.index; modulus; divisor } :: !out
  done;
  List.rev !out

let read_header ic =
  if not (String.equal (Io.read_string ic) magic) then
    raise (Io.Corrupt "not a sharded-GCD checkpoint");
  let stride = Io.read_int ic in
  if not (is_pow2 stride) then
    raise (Io.Corrupt "shard stride is not a power of two");
  let total = Io.read_int ic in
  (stride, total, read_findings ic total)

(* Eager single-stream form, for Stage.run_cached. *)
let save oc t =
  Io.write_string oc magic;
  Io.write_int oc t.stride;
  Io.write_int oc t.total;
  write_findings oc t.findings;
  Io.write_int oc (Array.length t.slots);
  Array.iter (fun slot -> Inc.save oc (force slot)) t.slots

let load ic =
  let stride, total, findings = read_header ic in
  (* Each slot is a whole incremental checkpoint: its magic record and
     three counts take well over 16 bytes. *)
  let nslots = Io.read_count ~min_bytes_each:16 ic in
  if nslots <> (total + stride - 1) / stride then
    raise (Io.Corrupt "shard count disagrees with corpus size");
  let store = Store.create ~size:(Stdlib.min total 65536) ~stride () in
  let slots =
    Array.init nslots (fun s ->
        let goff = s * stride in
        let size = Stdlib.min stride (total - goff) in
        let inc = Inc.load ic in
        if Inc.corpus_size inc <> size then
          raise (Io.Corrupt "shard forest size disagrees with meta");
        Array.iteri
          (fun l m ->
            if Store.intern store m <> goff + l then
              raise (Io.Corrupt "duplicate modulus across shards"))
          (Inc.corpus inc);
        { goff; size; forest = Loaded inc })
  in
  { stride; total; slots; findings; store; uses = [] }

(* Directory form: the corpus shards are the Store's mapped arenas, so
   reopening is O(shard count) — forests stay on disk until a sweep
   needs them. *)

let forest_file dir s = Filename.concat dir (Printf.sprintf "forest-%04d.ckpt" s)
let sweep_file dir = Filename.concat dir "sweep"

let save_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Store.save t.store dir;
  Array.iteri
    (fun s slot ->
      let path = forest_file dir s in
      match slot.forest with
      | On_disk p when String.equal p path -> ()
      | _ ->
          let inc = force slot in
          let tmp = path ^ ".tmp" in
          let oc = open_out_bin tmp in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> Inc.save oc inc);
          Sys.rename tmp path)
    t.slots;
  let tmp = sweep_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      Io.write_string oc magic;
      Io.write_int oc t.stride;
      Io.write_int oc t.total;
      write_findings oc t.findings);
  Sys.rename tmp (sweep_file dir)

let load_dir dir =
  let store = Store.load dir in
  let ic = open_in_bin (sweep_file dir) in
  let stride, total, findings =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = read_header ic in
        Io.expect_end ic;
        header)
  in
  if stride <> Store.stride store then
    raise (Io.Corrupt "sweep stride disagrees with corpus shards");
  if total <> Store.size store then
    raise (Io.Corrupt "sweep size disagrees with corpus shards");
  let nshards = (total + stride - 1) / stride in
  let slots =
    Array.init nshards (fun s ->
        if not (Sys.file_exists (forest_file dir s)) then
          raise (Io.Corrupt "missing shard forest file");
        let goff = s * stride in
        {
          goff;
          size = Stdlib.min stride (total - goff);
          forest = On_disk (forest_file dir s);
        })
  in
  { stride; total; slots; findings; store; uses = [] }

let is_dir_checkpoint dir = Sys.file_exists (sweep_file dir)
