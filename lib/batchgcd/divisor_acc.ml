module N = Bignum.Nat

type t = { moduli : N.t array; acc : N.t array }

let create moduli = { moduli; acc = Array.make (Array.length moduli) N.one }

let mul t i c =
  let m = t.moduli.(i) in
  t.acc.(i) <- N.rem (N.mul t.acc.(i) (N.rem c m)) m

let divisors t = Array.mapi (fun i m -> N.gcd m t.acc.(i)) t.moduli
