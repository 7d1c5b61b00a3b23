module N = Bignum.Nat

(* Values live in a growable array indexed by id; an open-addressing
   intern index sits over it.  Buckets hold [id + 1] (0 = empty) and
   probe linearly; per-id hashes are memoized so resizes and probe
   rejections never rehash a value. *)
type t = {
  mutable values : N.t array; (* valid for ids < count *)
  mutable hashes : int array; (* per-id N.hash, valid for ids < count *)
  mutable count : int;
  mutable buckets : int array; (* id + 1; 0 = empty *)
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* [size] sizes only the index: the value and hash arrays start small
   and double as they fill, so a generous hint costs one int array. *)
let create ?(size = 64) () =
  {
    values = Array.make 16 N.zero;
    hashes = Array.make 16 0;
    count = 0;
    buckets = Array.make (pow2_at_least (2 * (size + 1)) 16) 0;
  }

let size t = t.count

(* Every array is blitted, so no value is rehashed and neither side
   sees the other's later interns. *)
let copy t =
  {
    values = Array.copy t.values;
    hashes = Array.copy t.hashes;
    count = t.count;
    buckets = Array.copy t.buckets;
  }

(* Insert an id already known absent; buckets must have a free slot. *)
let insert_bucket t h id =
  let mask = Array.length t.buckets - 1 in
  let rec probe j =
    if t.buckets.(j) = 0 then t.buckets.(j) <- id + 1
    else probe ((j + 1) land mask)
  in
  probe (h land mask)

let rebuild t cap =
  t.buckets <- Array.make cap 0;
  for id = 0 to t.count - 1 do
    insert_bucket t t.hashes.(id) id
  done

let lookup t h n =
  let mask = Array.length t.buckets - 1 in
  let rec probe j =
    match t.buckets.(j) with
    | 0 -> None
    | slot ->
        let id = slot - 1 in
        if t.hashes.(id) = h && N.equal t.values.(id) n then Some id
        else probe ((j + 1) land mask)
  in
  probe (h land mask)

let find t n = lookup t (N.hash n) n
let mem t n = find t n <> None

let grow t =
  let cap = 2 * Array.length t.values in
  let values = Array.make cap N.zero and hashes = Array.make cap 0 in
  Array.blit t.values 0 values 0 t.count;
  Array.blit t.hashes 0 hashes 0 t.count;
  t.values <- values;
  t.hashes <- hashes

let intern t n =
  let h = N.hash n in
  match lookup t h n with
  | Some id -> id
  | None ->
      if 2 * (t.count + 1) >= Array.length t.buckets then
        rebuild t (2 * Array.length t.buckets);
      if t.count = Array.length t.values then grow t;
      let id = t.count in
      t.values.(id) <- n;
      t.hashes.(id) <- h;
      t.count <- id + 1;
      insert_bucket t h id;
      id

let get t id =
  if id < 0 || id >= t.count then
    invalid_arg "Corpus.Store.get: id out of range";
  t.values.(id)

let to_array t = Array.sub t.values 0 t.count

let iter f t =
  for id = 0 to t.count - 1 do
    f id t.values.(id)
  done
