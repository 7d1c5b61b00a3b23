module Id_set = Corpus.Id_set

type artifact =
  | Cert_labels of Rules.label option array
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
