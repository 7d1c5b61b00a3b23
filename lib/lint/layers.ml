(* Declarative layering checker over the module graph.

   The spec is an ordered list of layers (bottom first); a unit
   directory may depend on any directory in the same or a lower
   layer. Upward edges are violations, as are explicitly skip-listed
   edges even when they point downward. A short allow-list grants
   individually justified exceptions for pre-existing architectural
   trades (each carries its justification, printed with the rule's
   hint), so the checker can be strict about everything new without a
   flag day for the old. *)

type spec = {
  layers : (string * string list) list;  (* bottom first *)
  allowed : (string * string * string) list;  (* src dir, dst dir, why *)
  denied : (string * string * string) list;  (* src dir, dst dir, why *)
}

(* The repository's layer cake. The three allowed upward edges are
   deliberate, pre-existing trades:
   - bignum -> parallel: the PR 3 in-multiply parallelism fans
     Karatsuba/Toom-3 pointwise products onto the domain pool from
     inside the kernel ladder.
   - rsa -> entropy: keygen consumes the modeled boot-time entropy
     stream (Device_rng) so weak-key cohorts reproduce the paper.
   - fingerprint -> netsim: Pass.Ctx carries scan snapshots typed in
     Netsim.Scanner; inverting this (a scan-facts record owned by
     corpus) is future work.
   The denied edges are downward but architecturally banned: the
   simulator must never invoke attribution techniques, and entropy
   modeling must never reach into key generation. *)
let default =
  {
    layers =
      [
        ("bignum", [ "lib/bignum" ]);
        ("corpus", [ "lib/corpus" ]);
        ("text+hash", [ "lib/hashes"; "lib/stringx" ]);
        ("parallel", [ "lib/parallel" ]);
        ("keys", [ "lib/rsa"; "lib/x509lite" ]);
        ("batchgcd", [ "lib/batchgcd" ]);
        ("entropy", [ "lib/entropy" ]);
        ("fingerprint", [ "lib/fingerprint" ]);
        ("netsim", [ "lib/netsim" ]);
        ("analysis", [ "lib/analysis" ]);
        ("core", [ "lib/core" ]);
        ("tooling", [ "lib/lint" ]);
        ("entry", [ "bin"; "test"; "bench"; "examples" ]);
      ];
    allowed =
      [
        ( "lib/bignum", "lib/parallel",
          "in-multiply parallelism: kernel ladder fans pointwise products \
           onto the pool (PR 3)" );
        ( "lib/rsa", "lib/entropy",
          "keygen consumes the modeled boot-time entropy stream by design" );
        ( "lib/fingerprint", "lib/netsim",
          "Pass.Ctx carries scan snapshots typed in Netsim.Scanner; \
           inversion is future work" );
      ];
    denied =
      [
        ( "lib/netsim", "lib/fingerprint",
          "the simulator plants anomalies; it must never run attribution \
           techniques on itself" );
        ( "lib/entropy", "lib/rsa",
          "entropy modeling feeds keygen, never the reverse" );
      ];
  }

let index_of spec dir =
  let rec go i = function
    | [] -> None
    | (_, dirs) :: rest ->
      if List.mem dir dirs then Some i else go (i + 1) rest
  in
  go 0 spec.layers

let layer_name spec dir =
  List.find_map
    (fun (name, dirs) -> if List.mem dir dirs then Some name else None)
    spec.layers

type finding = { path : string; line : int; message : string }

let edge_in list src dst =
  List.find_map
    (fun (s, d, why) -> if s = src && d = dst then Some why else None)
    list

let check ?(spec = default) graph =
  List.filter_map
    (fun (e : Modgraph.edge) ->
      let violation kind =
        Some
          { path = e.Modgraph.src_path;
            line = e.Modgraph.line;
            message =
              Printf.sprintf
                "%s: `%s` (%s) must not depend on %s via `%s`" kind
                e.Modgraph.src_dir
                (Option.value ~default:"?" (layer_name spec e.Modgraph.src_dir))
                e.Modgraph.dst_dir e.Modgraph.via }
      in
      match edge_in spec.denied e.Modgraph.src_dir e.Modgraph.dst_dir with
      | Some _ -> violation "skip-listed edge"
      | None -> (
        if edge_in spec.allowed e.Modgraph.src_dir e.Modgraph.dst_dir <> None
        then None
        else
          match
            (index_of spec e.Modgraph.src_dir, index_of spec e.Modgraph.dst_dir)
          with
          | Some src, Some dst when dst > src -> violation "upward edge"
          | _ -> None))
    (Modgraph.edges graph)
