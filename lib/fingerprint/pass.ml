module Ctx = struct
  type t = {
    store : Corpus.Store.t;
    corpus : Bignum.Nat.t array;
    findings : Batchgcd.Batch_gcd.finding list;
    factored : Factored.t list;
    factored_index : Factored.t option array;
    unrecovered : Bignum.Nat.t list;
    scans : Scan_ids.t list;
    certs : X509lite.Cert_store.t;
    modulus_bits : int;
  }
end

type result = {
  evidence : Evidence.t list;
  artifacts : Attribution.artifact list;
}

type t = {
  name : string;
  deps : string list;
  doc : string;
  run : Ctx.t -> Attribution.t -> result;
}

let empty_result = { evidence = []; artifacts = [] }
