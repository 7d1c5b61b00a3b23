type t = {
  factor :
    ?pool:Parallel.Pool.t ->
    ?domains:int ->
    Bignum.Nat.t array ->
    Batch_gcd.finding list;
}

let tree = { factor = Batch_gcd.factor_batch }

let ksubset_k k =
  {
    factor =
      (fun ?pool ?domains moduli ->
        Batch_gcd.factor_subsets ?pool ?domains ~k moduli);
  }

let factor b = b.factor
