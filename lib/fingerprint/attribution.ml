module Io = Corpus.Io
module Id_set = Corpus.Id_set

type artifact =
  | Cert_labels of (string, Rules.label option) Hashtbl.t
  | Cliques of Ibm_clique.clique list
  | Shared of Shared_prime.t
  | Mitm of Rimon.detection list
  | Bit_error_triage of { suspects : Bignum.Nat.t list; near_corpus : int }
  | Openssl_table of (string * Openssl_fp.verdict * int) list

type t = {
  mutable table : Evidence.t list array; (* reverse insertion order per id *)
  mutable max_id : int; (* 1 + highest subject id seen *)
  mutable count : int;
  mutable artifacts : artifact list; (* newest first *)
}

let create ?(size = 1024) () =
  { table = Array.make (Stdlib.max 1 size) []; max_id = 0; count = 0;
    artifacts = [] }

let ensure t id =
  let n = Array.length t.table in
  if id >= n then begin
    let table = Array.make (Stdlib.max (id + 1) (2 * n)) [] in
    Array.blit t.table 0 table 0 n;
    t.table <- table
  end

let add t (e : Evidence.t) =
  if e.Evidence.subject < 0 then
    invalid_arg "Attribution.add: negative subject id";
  ensure t e.Evidence.subject;
  t.table.(e.Evidence.subject) <- e :: t.table.(e.Evidence.subject);
  t.count <- t.count + 1;
  if e.Evidence.subject >= t.max_id then t.max_id <- e.Evidence.subject + 1

let evidence t id =
  if id < 0 || id >= Array.length t.table then []
  else List.rev t.table.(id)

let evidence_count t = t.count

let attributed t =
  let s = Id_set.create ~size:t.max_id () in
  for id = 0 to t.max_id - 1 do
    if List.exists (fun e -> e.Evidence.vendor <> None) t.table.(id) then
      Id_set.add s id
  done;
  s

(* Highest count wins; equal counts fall to the lexicographically
   smallest vendor name, so the result does not depend on ballot
   order. *)
let majority_vendor votes =
  let best =
    List.fold_left
      (fun acc (v, c) ->
        match acc with
        | Some (v', c') when c' > c || (c' = c && String.compare v' v <= 0) ->
          acc
        | _ -> Some (v, c))
      None votes
  in
  Option.map fst best

(* (vendor, weight-sum) tally preserving first-seen vendor order (the
   order does not affect the majority, but a stable ballot makes the
   function easy to reason about). *)
let tally candidates =
  List.rev
    (List.fold_left
       (fun acc (e, v) ->
         let w = e.Evidence.weight in
         if List.mem_assoc v acc then
           List.map
             (fun (v', c) -> if String.equal v' v then (v', c + w) else (v', c))
             acc
         else (v, w) :: acc)
       [] candidates)

let candidates ?use t id =
  let allowed tech =
    match use with None -> true | Some l -> List.mem tech l
  in
  List.filter_map
    (fun (e : Evidence.t) ->
      match e.Evidence.vendor with
      | Some v when allowed e.Evidence.technique -> Some (e, v)
      | _ -> None)
    (evidence t id)

let best_rank cs =
  List.fold_left
    (fun acc ((e : Evidence.t), _) ->
      Stdlib.min acc (Evidence.rank e.Evidence.technique))
    Stdlib.max_int cs

let vendor_of ?use t id =
  match candidates ?use t id with
  | [] -> None
  | cs ->
    let r = best_rank cs in
    majority_vendor
      (tally
         (List.filter (fun ((e : Evidence.t), _) ->
              Evidence.rank e.Evidence.technique = r)
            cs))

let model_of t id =
  match candidates t id with
  | [] -> None
  | cs -> (
    let r = best_rank cs in
    let cs =
      List.filter (fun ((e : Evidence.t), _) ->
          Evidence.rank e.Evidence.technique = r)
        cs
    in
    match majority_vendor (tally cs) with
    | None -> None
    | Some winner ->
      List.fold_left
        (fun acc ((e : Evidence.t), v) ->
          if not (String.equal v winner) then acc
          else
            match (acc, e.Evidence.model_id) with
            | None, m -> m
            | Some a, Some m when String.compare m a < 0 -> Some m
            | _ -> acc)
        None cs)

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let add_artifact t a = t.artifacts <- a :: t.artifacts

let find_artifact t f =
  List.fold_left
    (fun acc a -> match acc with Some _ -> acc | None -> f a)
    None t.artifacts

let cert_labels t =
  find_artifact t (function Cert_labels h -> Some h | _ -> None)

let cliques t = find_artifact t (function Cliques c -> Some c | _ -> None)
let shared t = find_artifact t (function Shared s -> Some s | _ -> None)
let mitm t = find_artifact t (function Mitm d -> Some d | _ -> None)

let bit_error_triage t =
  find_artifact t (function
    | Bit_error_triage { suspects; near_corpus } -> Some (suspects, near_corpus)
    | _ -> None)

let openssl_table t =
  find_artifact t (function Openssl_table r -> Some r | _ -> None)

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let equal_evidence a b =
  a.count = b.count
  &&
  let n = Stdlib.max a.max_id b.max_id in
  let rec ids id =
    id >= n
    ||
    let ea = evidence a id and eb = evidence b id in
    List.length ea = List.length eb
    && List.for_all2 Evidence.equal ea eb
    && ids (id + 1)
  in
  ids 0

(* ------------------------------------------------------------------ *)
(* Serialization (checkpoint support)                                  *)
(* ------------------------------------------------------------------ *)

let write_opt_string oc = function
  | None -> Io.write_int oc 0
  | Some s ->
    Io.write_int oc 1;
    Io.write_string oc s

let read_opt_string ic =
  match Io.read_int ic with
  | 0 -> None
  | 1 -> Some (Io.read_string ic)
  | k -> raise (Io.Corrupt (Printf.sprintf "bad option tag %d" k))

(* Floats round-trip exactly through the hexadecimal notation. *)
let write_float oc f = Io.write_string oc (Printf.sprintf "%h" f)

let read_float ic =
  let s = Io.read_string ic in
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Io.Corrupt ("bad float " ^ s))

let technique_tag = function
  | Evidence.Subject_rule -> 0
  | Evidence.Prime_clique -> 1
  | Evidence.Shared_prime -> 2
  | Evidence.Openssl_fingerprint -> 3
  | Evidence.Bit_error -> 4
  | Evidence.Mitm_substitution -> 5

let technique_of_tag = function
  | 0 -> Evidence.Subject_rule
  | 1 -> Evidence.Prime_clique
  | 2 -> Evidence.Shared_prime
  | 3 -> Evidence.Openssl_fingerprint
  | 4 -> Evidence.Bit_error
  | 5 -> Evidence.Mitm_substitution
  | k -> raise (Io.Corrupt (Printf.sprintf "bad technique tag %d" k))

let verdict_tag = function
  | Openssl_fp.Satisfies -> 0
  | Openssl_fp.Does_not_satisfy -> 1
  | Openssl_fp.Inconclusive -> 2

let verdict_of_tag = function
  | 0 -> Openssl_fp.Satisfies
  | 1 -> Openssl_fp.Does_not_satisfy
  | 2 -> Openssl_fp.Inconclusive
  | k -> raise (Io.Corrupt (Printf.sprintf "bad verdict tag %d" k))

let write_evidence oc (e : Evidence.t) =
  Io.write_int oc e.Evidence.subject;
  Io.write_int oc (technique_tag e.Evidence.technique);
  write_opt_string oc e.Evidence.vendor;
  write_opt_string oc e.Evidence.model_id;
  write_float oc e.Evidence.confidence;
  Io.write_int oc e.Evidence.weight;
  Io.write_int oc (List.length e.Evidence.witnesses);
  List.iter (Io.write_int oc) e.Evidence.witnesses

let read_evidence ic =
  let subject = Io.read_int ic in
  let technique = technique_of_tag (Io.read_int ic) in
  let vendor = read_opt_string ic in
  let model_id = read_opt_string ic in
  let confidence = read_float ic in
  let weight = Io.read_int ic in
  let nw = Io.read_count ~min_bytes_each:4 ic in
  let witnesses = List.init nw (fun _ -> Io.read_int ic) in
  { Evidence.subject; technique; vendor; model_id; confidence; weight;
    witnesses }

let write_list oc write xs =
  Io.write_int oc (List.length xs);
  List.iter (write oc) xs

(* Every list element holds at least one int or length-prefixed
   record: 4 bytes. *)
let read_list ic read =
  let n = Io.read_count ~min_bytes_each:4 ic in
  List.init n (fun _ -> read ic)

let write_artifact oc = function
  | Cert_labels h ->
    Io.write_int oc 0;
    Io.write_int oc (Hashtbl.length h);
    Hashtbl.iter
      (fun fp label ->
        Io.write_string oc fp;
        match label with
        | None -> Io.write_int oc 0
        | Some { Rules.vendor; model_id } ->
          Io.write_int oc 1;
          Io.write_string oc vendor;
          write_opt_string oc model_id)
      h
  | Cliques cs ->
    Io.write_int oc 1;
    write_list oc
      (fun oc (c : Ibm_clique.clique) ->
        write_list oc Io.write_nat c.Ibm_clique.primes;
        write_list oc Io.write_nat c.Ibm_clique.moduli)
      cs
  | Shared s ->
    Io.write_int oc 2;
    write_list oc
      (fun oc ((f : Factored.t), label) ->
        Io.write_nat oc f.Factored.modulus;
        Io.write_nat oc f.Factored.p;
        Io.write_nat oc f.Factored.q;
        write_opt_string oc label)
      (Shared_prime.entries s)
  | Mitm ds ->
    Io.write_int oc 3;
    write_list oc
      (fun oc (d : Rimon.detection) ->
        Io.write_nat oc d.Rimon.modulus;
        write_list oc
          (fun oc ip -> Io.write_string oc (Netsim.Ipv4.to_string ip))
          d.Rimon.ips;
        Io.write_int oc d.Rimon.distinct_subjects;
        write_float oc d.Rimon.invalid_signature_fraction)
      ds
  | Bit_error_triage { suspects; near_corpus } ->
    Io.write_int oc 4;
    write_list oc Io.write_nat suspects;
    Io.write_int oc near_corpus
  | Openssl_table rows ->
    Io.write_int oc 5;
    write_list oc
      (fun oc (vendor, verdict, n) ->
        Io.write_string oc vendor;
        Io.write_int oc (verdict_tag verdict);
        Io.write_int oc n)
      rows

let read_artifact ic =
  match Io.read_int ic with
  | 0 ->
    let n = Io.read_count ~min_bytes_each:8 ic in
    let h = Hashtbl.create (Stdlib.max 16 n) in
    for _ = 1 to n do
      let fp = Io.read_string ic in
      let label =
        match Io.read_int ic with
        | 0 -> None
        | 1 ->
          let vendor = Io.read_string ic in
          let model_id = read_opt_string ic in
          Some { Rules.vendor; model_id }
        | k -> raise (Io.Corrupt (Printf.sprintf "bad label tag %d" k))
      in
      Hashtbl.replace h fp label
    done;
    Cert_labels h
  | 1 ->
    Cliques
      (read_list ic (fun ic ->
           let primes = read_list ic Io.read_nat in
           let moduli = read_list ic Io.read_nat in
           { Ibm_clique.primes; moduli }))
  | 2 ->
    Shared
      (Shared_prime.build
         (read_list ic (fun ic ->
              let modulus = Io.read_nat ic in
              let p = Io.read_nat ic in
              let q = Io.read_nat ic in
              let label = read_opt_string ic in
              ({ Factored.modulus; p; q }, label))))
  | 3 ->
    Mitm
      (read_list ic (fun ic ->
           let modulus = Io.read_nat ic in
           let ips =
             read_list ic (fun ic -> Netsim.Ipv4.of_string (Io.read_string ic))
           in
           let distinct_subjects = Io.read_int ic in
           let invalid_signature_fraction = read_float ic in
           { Rimon.modulus; ips; distinct_subjects;
             invalid_signature_fraction }))
  | 4 ->
    let suspects = read_list ic Io.read_nat in
    let near_corpus = Io.read_int ic in
    Bit_error_triage { suspects; near_corpus }
  | 5 ->
    Openssl_table
      (read_list ic (fun ic ->
           let vendor = Io.read_string ic in
           let verdict = verdict_of_tag (Io.read_int ic) in
           let n = Io.read_int ic in
           (vendor, verdict, n)))
  | k -> raise (Io.Corrupt (Printf.sprintf "bad artifact tag %d" k))

let save oc t =
  Io.write_int oc t.max_id;
  let nonempty = ref 0 in
  for id = 0 to t.max_id - 1 do
    if t.table.(id) <> [] then incr nonempty
  done;
  Io.write_int oc !nonempty;
  for id = 0 to t.max_id - 1 do
    if t.table.(id) <> [] then begin
      Io.write_int oc id;
      write_list oc write_evidence (evidence t id)
    end
  done;
  write_list oc write_artifact (List.rev t.artifacts)

(* [max_id] is not a record count, so it never sizes an allocation:
   the table starts at the (byte-bounded) record count and grows to
   the ids actually present. The table is dense over ids, so [max_id]
   is checked against [subjects] first, and every record id below it.
   Records must come in the order [save] writes them — strictly
   increasing ids, each holding only its own subject's evidence — and
   the last id must be [max_id - 1]. *)
let load ~subjects ic =
  let max_id = Io.read_int ic in
  if max_id > subjects then
    raise
      (Io.Corrupt (Printf.sprintf "max id %d beyond %d subjects" max_id subjects));
  let nonempty = Io.read_count ~min_bytes_each:8 ic in
  let t = create ~size:(Stdlib.max 1 (Stdlib.min max_id nonempty)) () in
  let last = ref (-1) in
  for _ = 1 to nonempty do
    let id = Io.read_int ic in
    if id <= !last || id >= max_id then
      raise (Io.Corrupt (Printf.sprintf "evidence id %d out of order" id));
    last := id;
    List.iter
      (fun (e : Evidence.t) ->
        if e.Evidence.subject <> id then
          raise (Io.Corrupt "evidence subject disagrees with its record");
        add t e)
      (read_list ic read_evidence)
  done;
  if t.max_id <> max_id then
    raise (Io.Corrupt "max id disagrees with the evidence records");
  List.iter (add_artifact t) (read_list ic read_artifact);
  t
