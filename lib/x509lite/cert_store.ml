module N = Bignum.Nat

(* Value cache in front of the fingerprint. Scanned records share
   their certificate values physically, and [compare] returns at once
   on physically equal values, so the usual hit costs one hash and
   one pointer test. The hash reads the fields that tell certificates
   apart without hashing their text: serial, key and start date. *)
module Cache = Hashtbl.Make (struct
  type t = Certificate.t

  let equal a b = Stdlib.compare a b = 0

  let hash (c : Certificate.t) =
    Hashtbl.hash
      ( N.hash c.Certificate.serial,
        N.hash c.Certificate.public_key.Rsa.Keypair.n,
        c.Certificate.not_before )
end)

type t = {
  cache : int Cache.t;  (* value -> id *)
  by_fingerprint : (string, int) Hashtbl.t;
  mutable certs : Certificate.t array;  (* id -> first value *)
  mutable fingerprints : string array;  (* id -> fingerprint *)
  mutable count : int;
}

let create ?(size = 1024) () =
  let size = Stdlib.max size 16 in
  {
    cache = Cache.create size;
    by_fingerprint = Hashtbl.create size;
    certs = [||];
    fingerprints = [||];
    count = 0;
  }

let copy t =
  {
    cache = Cache.copy t.cache;
    by_fingerprint = Hashtbl.copy t.by_fingerprint;
    certs = Array.copy t.certs;
    fingerprints = Array.copy t.fingerprints;
    count = t.count;
  }

let size t = t.count

let append t c fp =
  let id = t.count in
  if id = Array.length t.certs then begin
    let grow a fill =
      let b = Array.make (Stdlib.max 16 (2 * id)) fill in
      Array.blit a 0 b 0 id;
      b
    in
    t.certs <- grow t.certs c;
    t.fingerprints <- grow t.fingerprints ""
  end;
  t.certs.(id) <- c;
  t.fingerprints.(id) <- fp;
  t.count <- id + 1;
  Hashtbl.replace t.by_fingerprint fp id;
  id

let intern t c =
  match Cache.find_opt t.cache c with
  | Some id -> id
  | None ->
    let fp = Certificate.fingerprint c in
    let id =
      match Hashtbl.find_opt t.by_fingerprint fp with
      | Some id -> id
      | None -> append t c fp
    in
    Cache.replace t.cache c id;
    id

let check t id =
  if id < 0 || id >= t.count then
    invalid_arg "X509lite.Cert_store: id out of range"

let get t id =
  check t id;
  t.certs.(id)

let fingerprint t id =
  check t id;
  t.fingerprints.(id)
