module PT = Product_tree
module Pool = Parallel.Pool
module BG = Batch_gcd
module Inc = Incremental
module Io = Corpus.Io
module Store = Corpus.Store

type t = {
  stride : int;
  store : Store.t; (* ids are exactly the global sweep indexes *)
  forest : Inc.t; (* no segment crosses a stride boundary *)
  uses : (string * int) list;
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

let forest t = t.forest
let findings t = Inc.findings t.forest
let corpus_size t = Inc.corpus_size t.forest
let stride t = t.stride
let shard_count t = (corpus_size t + t.stride - 1) / t.stride
let segment_count t = Inc.segment_count t.forest
let corpus t = Store.to_array t.store
let find t m = Store.find t.store m

let backend_uses t = t.uses

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
let create ?pool ?(stride = default_stride) moduli =
  if not (is_pow2 stride) then
    invalid_arg "Batchgcd.Sharded.create: stride must be a power of two";
  let n = Array.length moduli in
  let store = Store.create ~size:(Stdlib.min n 65536) () in
  intern_delta store 0 moduli;
  let segments, findings =
    BG.factor_forest ?pool ~segment:stride moduli
  in
  let uses = if n = 0 then [] else [ ("tree", Array.length segments) ] in
  { stride; store; forest = Inc.of_segments ~findings segments; uses }

let extend ?pool t fresh =
  let nf = Array.length fresh in
  let total = corpus_size t in
  if nf = 0 then t
  else if total = 0 then create ?pool ~stride:t.stride fresh
  else begin
    let pool = match pool with Some p -> p | None -> Pool.get () in
    intern_delta t.store total fresh;
    (* Chunk the delta at shard boundaries: top up the tail shard,
       then whole strides. Each chunk is folded in by
       [Incremental.extend] as one new segment, so every step — and
       by induction the whole extend — is findings-equal to a full
       recompute. *)
    let room = (shard_count t * t.stride) - total in
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
    let forest =
      List.fold_left (fun acc part -> Inc.extend ~pool acc part) t.forest parts
    in
    { t with forest; uses = [ ("delta", List.length parts) ] }
  end

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let magic = "weakkeys-sharded/2"

(* The shard count is redundant with the stride and the forest's
   size; it is stored so that an overwritten stride is caught. *)
let save oc t =
  Io.write_string oc magic;
  Io.write_int oc t.stride;
  Io.write_int oc (shard_count t);
  Inc.save oc t.forest

let load ic =
  if not (String.equal (Io.read_string ic) magic) then
    raise (Io.Corrupt "not a sharded-GCD checkpoint");
  let stride = Io.read_int ic in
  if not (is_pow2 stride) then
    raise (Io.Corrupt "shard stride is not a power of two");
  let shards = Io.read_int ic in
  let forest = Inc.load ic in
  if shards <> (Inc.corpus_size forest + stride - 1) / stride then
    raise (Io.Corrupt "shard count does not match stride and corpus size");
  Array.iter
    (fun (off, tree) ->
      let last = off + Array.length (PT.leaves tree) - 1 in
      if off / stride <> last / stride then
        raise (Io.Corrupt "segment crosses a shard boundary"))
    (Inc.segments forest);
  let total = Inc.corpus_size forest in
  let store = Store.create ~size:(Stdlib.min total 65536) () in
  Array.iteri
    (fun i m ->
      if Store.intern store m <> i then
        raise (Io.Corrupt "duplicate modulus in sharded checkpoint"))
    (Inc.corpus forest);
  { stride; store; forest; uses = [] }

let sweep_file dir = Filename.concat dir "sweep"

let save_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Io.write_atomic (sweep_file dir) (fun oc -> save oc t)

let load_dir dir =
  In_channel.with_open_bin (sweep_file dir) (fun ic ->
      let t = load ic in
      Io.expect_end ic;
      t)
