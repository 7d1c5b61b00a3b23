(* Half the probe chases pointers through an 8 MiB table (memory
   latency, which the hashing and tree walks of the program wait on),
   half multiplies limbs in registers (what the batch-GCD kernels do).
   It allocates nothing, so the heap's state does not move it, and it
   calls nothing in the library, so no change to the program does. *)
let table_size = 1 lsl 20

let table =
  lazy
    (* Sattolo's shuffle: one cycle through every slot. *)
    (let t = Array.init table_size (fun i -> i) in
     let st = Random.State.make [| 0x5eed |] in
     for i = table_size - 1 downto 1 do
       let j = Random.State.int st i in
       let x = t.(i) in
       t.(i) <- t.(j);
       t.(j) <- x
     done;
     t)

let work () =
  let t = Lazy.force table in
  let p = ref 0 in
  for _ = 1 to 1_000_000 do
    p := t.(!p)
  done;
  let a = Array.init 64 (fun i -> (i * 2654435761) land 0x7fffffff) in
  let acc = Array.make 128 0 in
  for _ = 1 to 2_000 do
    for i = 0 to 63 do
      for j = 0 to 63 do
        let k = i + j in
        acc.(k) <- (acc.(k) + (a.(i) * a.(j))) land 0x3fff_ffff_ffff
      done
    done
  done;
  !p + acc.(64)

let probe () =
  ignore (Lazy.force table);
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  Unix.gettimeofday () -. t0

let reference_s = 0.1

let factor before after = reference_s /. ((before +. after) /. 2.)
