module N = Bignum.Nat

let suspicious ~bits n =
  not (Rsa.Keypair.well_formed_modulus n ~bits)

let bitflip_neighbor ~known n =
  let nb = N.num_bits n + 1 in
  let rec go i =
    if i >= nb then None
    else begin
      let flipped =
        if N.testbit n i then N.sub n (N.shift_left N.one i)
        else N.add n (N.shift_left N.one i)
      in
      if known flipped then Some flipped else go (i + 1)
    end
  in
  go 0

let is_bitflip_of n m =
  let c = N.compare n m in
  c <> 0
  &&
  let lo, hi = if c < 0 then (n, m) else (m, n) in
  let d = N.sub hi lo in
  let i = N.num_bits d - 1 in
  i <= N.num_bits n
  && N.equal d (N.shift_left N.one i)
  && not (N.testbit lo i)

let partition ~bits moduli =
  List.partition (fun n -> not (suspicious ~bits n)) moduli
