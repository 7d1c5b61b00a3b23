(* The k-subset distributed batch GCD (paper Section 3.2, Figure 2).

   The single-tree algorithm bottlenecks on one giant product at the
   tree root; the paper's modification splits the input into k subsets
   and reduces every subset product through every subset tree — k^2
   jobs of k-times-smaller numbers, embarrassingly parallel across a
   cluster (here: across OCaml domains), at the price of more total
   work. This example verifies the equivalence and reports timings
   across k.

   Run: dune exec examples/distributed_batchgcd.exe [n_moduli] *)

module N = Bignum.Nat
module BG = Batchgcd.Batch_gcd

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let () =
  let n = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 2000 in
  let drbg = Hashes.Drbg.create ~seed:"distributed-demo" () in
  let gen = Hashes.Drbg.gen_fn drbg in
  Printf.printf "generating %d moduli (with 40 planted shared-prime keys)...\n%!" n;
  let shared_prime = Bignum.Prime.generate ~gen ~bits:48 in
  let moduli =
    Array.init n (fun i ->
        if i mod (n / 40) = 0 then
          N.mul shared_prime (Bignum.Prime.generate ~gen ~bits:48)
        else
          N.mul
            (Bignum.Prime.generate ~gen ~bits:48)
            (Bignum.Prime.generate ~gen ~bits:48))
  in
  let reference, t_single = wall (fun () -> BG.factor_batch moduli) in
  Printf.printf "single product tree:        %5.2fs wall, %d findings\n%!"
    t_single (List.length reference);
  List.iter
    (fun k ->
      let (r, t_wall) = wall (fun () -> BG.factor_subsets ~k moduli) in
      let (_, t_cpu) = time (fun () -> BG.factor_subsets ~pool:(Parallel.Pool.get ~domains:1 ()) ~k moduli) in
      Printf.printf
        "k=%-3d subsets:              %5.2fs wall, %5.2fs 1-domain cpu, %s\n%!"
        k t_wall t_cpu
        (if BG.findings_equal r reference then "IDENTICAL results"
         else "RESULTS DIFFER (bug!)"))
    [ 2; 4; 8; 16 ];
  let naive_n = Stdlib.min n 600 in
  let sub = Array.sub moduli 0 naive_n in
  let ref_small = BG.factor_batch sub in
  let naive, t_naive = wall (fun () -> BG.naive sub) in
  Printf.printf
    "naive O(n^2) on %d moduli:  %5.2fs wall (%s) — the reason batch GCD\n\
     exists: extrapolating quadratically to the paper's 81M keys gives\n\
     millennia, vs 1089 CPU-hours for the tree algorithm.\n"
    naive_n t_naive
    (if BG.findings_equal naive ref_small then "matches tree results"
     else "MISMATCH (bug!)")
