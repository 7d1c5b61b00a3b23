module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd

let corpus_truth ~factors_of corpus =
  let carriers = Hashtbl.create (2 * Array.length corpus) in
  let bump p =
    let k = N.to_hex p in
    Hashtbl.replace carriers k
      (1 + Option.value ~default:0 (Hashtbl.find_opt carriers k))
  in
  let known = Array.map factors_of corpus in
  Array.iter
    (function
      | Some (p, q) ->
        bump p;
        if not (N.equal p q) then bump q
      | None -> ())
    known;
  let shared p = Hashtbl.find carriers (N.to_hex p) >= 2 in
  Array.map
    (function Some (p, q) -> shared p || shared q | None -> false)
    known

let findings_match_truth ~factors_of ~factorable corpus findings =
  let n = Array.length corpus in
  let truth = corpus_truth ~factors_of corpus in
  let flagged = Array.make n false in
  let bad =
    List.find_map
      (fun (f : BG.finding) ->
        if f.index < 0 || f.index >= n then
          Some (Printf.sprintf "finding index %d outside the corpus" f.index)
        else if not (N.equal f.modulus corpus.(f.index)) then
          Some (Printf.sprintf "finding %d names another modulus" f.index)
        else if
          N.is_one f.divisor
          || N.compare f.divisor f.modulus > 0
          || not (N.is_zero (N.rem f.modulus f.divisor))
        then Some (Printf.sprintf "finding %d: divisor does not divide" f.index)
        else begin
          flagged.(f.index) <- true;
          None
        end)
      findings
  in
  match bad with
  | Some e -> Error e
  | None ->
    let rec scan i =
      if i = n then Ok ()
      else
        match factors_of corpus.(i) with
        | None -> scan (i + 1)
        | Some _ when flagged.(i) && not (factorable corpus.(i)) ->
          Error (Printf.sprintf "index %d flagged but not factorable" i)
        | Some _ when flagged.(i) <> truth.(i) ->
          Error
            (Printf.sprintf "index %d: %s" i
               (if truth.(i) then "shares a prime but was missed"
                else "flagged without a shared prime"))
        | Some _ -> scan (i + 1)
    in
    scan 0

let pairs findings =
  List.map (fun (f : BG.finding) -> (N.to_hex f.modulus, N.to_hex f.divisor)) findings
  |> List.sort compare

let same_findings a b =
  let a = pairs a and b = pairs b in
  if a = b then Ok ()
  else
    Error
      (Printf.sprintf "findings differ (%d vs %d)" (List.length a) (List.length b))

let same_text ~what a b =
  if String.equal a b then Ok () else Error (what ^ " differs")
