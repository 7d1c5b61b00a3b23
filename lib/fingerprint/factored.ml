module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd

type t = { modulus : N.t; p : N.t; q : N.t }

let order p q = if N.compare p q <= 0 then (p, q) else (q, p)

let split_two_primes n d =
  (* d is a nontrivial divisor of n; accept only p*q with both prime. *)
  let q, r = N.divmod n d in
  if not (N.is_zero r) then None
  else if Bignum.Prime.is_probable_prime d && Bignum.Prime.is_probable_prime q
  then begin
    let p, q = order d q in
    Some { modulus = n; p; q }
  end
  else None

let split n d =
  match split_two_primes n d with
  | Some t -> Some t
  | None ->
    (* The divisor may be composite (e.g. a product of small primes
       from a bit error, or p*q' when the cofactor is not prime). Try
       the gcd of divisor and cofactor structure via known primes
       later; for now try the divisor's own split. *)
    split_two_primes n (N.gcd d (N.div n d))

let recover ?parent findings =
  (* A finding that is not fresh kept its divisor since the parent
     run, so its split is the parent's. *)
  let earlier =
    match parent with
    | None -> fun _ -> None
    | Some (index, fresh) ->
      let fresh_ids = Corpus.Id_set.create ~size:(Array.length index) () in
      List.iter (fun f -> Corpus.Id_set.add fresh_ids f.BG.index) fresh;
      fun f ->
        if Corpus.Id_set.mem fresh_ids f.BG.index then None
        else Some index.(f.BG.index)
  in
  let full = ref [] (* divisor = modulus: needs pairwise splitting *) in
  let ok = ref [] and bad = ref [] in
  List.iter
    (fun f ->
      let n = f.BG.modulus and d = f.BG.divisor in
      if N.equal d n then full := n :: !full
      else
        let t = match earlier f with Some t -> t | None -> split n d in
        match t with Some t -> ok := t :: !ok | None -> bad := n :: !bad)
    findings;
  (* Split fully-shared moduli by pairwise GCDs against every other
     flagged modulus (the flagged set is small). *)
  let all_flagged =
    List.map (fun f -> f.BG.modulus) findings |> Array.of_list
  in
  List.iter
    (fun n ->
      let found = ref None in
      Array.iter
        (fun m ->
          if !found = None && not (N.equal m n) then begin
            let g = N.gcd n m in
            if (not (N.is_one g)) && not (N.equal g n) then
              match split_two_primes n g with
              | Some t -> found := Some t
              | None -> ()
          end)
        all_flagged;
      match !found with
      | Some t -> ok := t :: !ok
      | None -> bad := n :: !bad)
    !full;
  (List.rev !ok, List.rev !bad)

let primes ts =
  List.concat_map (fun t -> [ t.p; t.q ]) ts
  |> List.sort_uniq N.compare
