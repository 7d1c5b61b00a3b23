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

module Delta = struct
  type t = {
    moduli_from : int;
    certs_from : int;
    scans : Scan_ids.t list;
    findings : Batchgcd.Batch_gcd.finding list;
  }

  let everything (ctx : Ctx.t) =
    {
      moduli_from = 0;
      certs_from = 0;
      scans = ctx.Ctx.scans;
      findings = ctx.Ctx.findings;
    }
end

type result = {
  evidence : Evidence.t list;
  artifacts : Attribution.artifact list;
  resume : delta_rule option;
}

and delta_rule = Ctx.t -> Delta.t -> Attribution.t -> result

type rule = Full of (Ctx.t -> Attribution.t -> result) | Delta of delta_rule

type t = { name : string; deps : string list; doc : string; rule : rule }

let empty_result = { evidence = []; artifacts = []; resume = None }
let extends p = match p.rule with Full _ -> "full" | Delta _ -> "delta"
