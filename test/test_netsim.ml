(* Tests for the simulated internet: determinism, population dynamics
   (growth, Heartbleed shock, end-of-life decline), weak-key planting
   consistent with ground truth, scanner schedules and artifacts. *)

module Date = X509lite.Date
module Cert = X509lite.Certificate
module N = Bignum.Nat
module K = Rsa.Keypair
module W = Netsim.World
module Sc = Netsim.Scanner
module Dm = Netsim.Device_model

let world () = Lazy.force Worlds.small
let scans () = Lazy.force Worlds.small_scans

let count_alive w model_id date =
  Array.fold_left
    (fun acc d ->
      if d.W.model.Dm.id = model_id && W.alive d date then acc + 1 else acc)
    0 (W.devices w)

(* ---------------- Det / Ipv4 / Vendor ---------------- *)

let test_det_determinism () =
  Alcotest.(check int) "int stable" (Netsim.Det.int "k" 1000)
    (Netsim.Det.int "k" 1000);
  Alcotest.(check bool) "different keys differ" false
    (Netsim.Det.int "a" 1000000 = Netsim.Det.int "b" 1000000);
  let f = Netsim.Det.float "x" in
  Alcotest.(check bool) "float in range" true (f >= 0. && f < 1.)

let test_det_uniformity () =
  (* Rough sanity: mean of many draws is near 0.5. *)
  let n = 2000 in
  let sum = ref 0. in
  for i = 1 to n do
    sum := !sum +. Netsim.Det.float ("u/" ^ string_of_int i)
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "mean near 0.5" true (mean > 0.45 && mean < 0.55)

let test_ipv4 () =
  Alcotest.(check string) "render" "192.0.2.1"
    (Netsim.Ipv4.to_string (Netsim.Ipv4.of_string "192.0.2.1"));
  let ip = Netsim.Ipv4.of_key "some-device" in
  Alcotest.(check bool) "roundtrip" true
    (Netsim.Ipv4.equal ip (Netsim.Ipv4.of_string (Netsim.Ipv4.to_string ip)));
  Alcotest.(check bool) "not loopback/private" true
    (let s = Netsim.Ipv4.to_string ip in
     not (String.length s >= 3 && String.sub s 0 3 = "10."))

let test_vendor_catalog () =
  Alcotest.(check int) "37 vendors in table 2" 37
    (List.length Netsim.Vendor.table2);
  Alcotest.(check int) "5 public advisories" 5
    (List.length
       (List.filter
          (fun v -> v.Netsim.Vendor.response = Netsim.Vendor.Public_advisory)
          Netsim.Vendor.table2));
  let acked =
    List.filter
      (fun v ->
        match v.Netsim.Vendor.response with
        | Netsim.Vendor.Public_advisory | Netsim.Vendor.Private_response
        | Netsim.Vendor.Auto_response ->
          true
        | Netsim.Vendor.No_response | Netsim.Vendor.Not_notified -> false)
      Netsim.Vendor.table2
  in
  (* "About half of the vendors acknowledged receipt." *)
  Alcotest.(check bool) "about half acknowledged" true
    (List.length acked >= 15 && List.length acked <= 22);
  Alcotest.(check bool) "juniper has advisory" true
    ((Netsim.Vendor.find "Juniper").Netsim.Vendor.advisory_date <> None)

let test_device_model_catalog () =
  let ids = List.map (fun m -> m.Dm.id) Dm.catalog in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq compare ids));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (m.Dm.id ^ " vendor exists")
        true
        (try
           ignore (Netsim.Vendor.find m.Dm.vendor);
           true
         with Not_found -> false))
    Dm.catalog;
  Alcotest.(check int) "five cisco eol lines" 5 (List.length Dm.cisco_eol_models)

let test_is_weak_at () =
  let huawei = Dm.find "huawei-bu" in
  Alcotest.(check bool) "before vuln_start" false
    (Dm.is_weak_at huawei (Date.of_ymd 2014 1 1));
  Alcotest.(check bool) "after vuln_start" true
    (Dm.is_weak_at huawei (Date.of_ymd 2015 6 1));
  let juniper = Dm.find "juniper-srx" in
  Alcotest.(check bool) "before fix" true
    (Dm.is_weak_at juniper (Date.of_ymd 2012 1 1));
  Alcotest.(check bool) "after fix" false
    (Dm.is_weak_at juniper (Date.of_ymd 2014 6 1))

(* ---------------- World ---------------- *)

let test_world_nonempty () =
  let w = world () in
  Alcotest.(check bool) "has devices" true (Array.length (W.devices w) > 100);
  Alcotest.(check bool) "has moduli" true
    (Array.length (W.all_tls_moduli w) > 100)

let test_world_deterministic () =
  (* Rebuild a tiny world twice; certificates must be identical. *)
  let cfg = { Worlds.small_config with W.scale = 0.01; seed = "det-check" } in
  let fp w =
    Array.to_list (W.devices w)
    |> List.concat_map (fun d ->
           Array.to_list d.W.epochs
           |> List.map (fun e -> Cert.fingerprint e.W.cert))
  in
  let a = W.build cfg and b = W.build cfg in
  Alcotest.(check (list string)) "identical worlds" (fp a) (fp b)

(* Every key of the shared test world, hashed: TLS epochs and SSH keys
   in device order, then the CA key and the Rimon middlebox key. The
   constant is the hash of the keys the world was built with when it
   was recorded; key generation may get faster, but a change that
   re-keys the world must show up here. *)
let pinned_world_keys =
  "750ca67dda03bc4fbfe36b9d38afca3b816897dfc59573d7df3a323d732ef61e"

let test_pinned_world_keys () =
  let w = world () in
  let h = Hashes.Sha256.init () in
  let add s =
    Hashes.Sha256.update h (string_of_int (String.length s) ^ ":");
    Hashes.Sha256.update h s
  in
  Array.iter
    (fun d ->
      Array.iter (fun e -> add (K.encode_private e.W.key)) d.W.epochs;
      Option.iter (fun k -> add (K.encode_private k)) d.W.ssh_key)
    (W.devices w);
  add (K.encode_private (W.ca_key w));
  add (K.encode_public (W.rimon_public w));
  Alcotest.(check string) "world keys" pinned_world_keys
    (Hashes.Sha256.to_hex (Hashes.Sha256.finalize h))

let test_population_growth_and_shock () =
  let w = world () in
  (* Juniper: grows, cliff at Heartbleed. *)
  let before = count_alive w "juniper-srx" (Date.of_ymd 2014 3 20) in
  let after = count_alive w "juniper-srx" (Date.of_ymd 2014 5 20) in
  let early = count_alive w "juniper-srx" (Date.of_ymd 2010 7 20) in
  Alcotest.(check bool) "grew 2010 -> 2014" true (before > early);
  Alcotest.(check bool)
    (Printf.sprintf "heartbleed cliff (%d -> %d)" before after)
    true
    (Float.of_int after < 0.8 *. Float.of_int before)

let test_population_eol_decline () =
  let w = world () in
  (* Cisco SA520: EoL announced 2012-09; population declines after. *)
  let at_announce = count_alive w "cisco-sa520" (Date.of_ymd 2012 9 20) in
  let late = count_alive w "cisco-sa520" (Date.of_ymd 2015 9 20) in
  Alcotest.(check bool)
    (Printf.sprintf "eol decline (%d -> %d)" at_announce late)
    true
    (late < at_announce)

let test_weak_units_exist_and_collide () =
  let w = world () in
  let weak_keys = ref [] in
  Array.iter
    (fun d ->
      if d.W.weak_unit && d.W.model.Dm.id = "juniper-srx" then
        Array.iter (fun e -> weak_keys := e.W.key :: !weak_keys) d.W.epochs)
    (W.devices w);
  Alcotest.(check bool) "weak juniper units exist" true
    (List.length !weak_keys > 3);
  (* At least one pair of weak units shares a first prime. *)
  let primes = List.map (fun k -> N.to_limbs k.K.p) !weak_keys in
  Alcotest.(check bool) "boot-state collisions occurred" true
    (List.length (List.sort_uniq compare primes) < List.length primes)

let test_ground_truth_consistency () =
  let w = world () in
  let truth = W.factorable_ground_truth w in
  let moduli = W.all_tls_moduli w in
  let n_factorable =
    Array.fold_left (fun acc m -> if truth m then acc + 1 else acc) 0 moduli
  in
  Alcotest.(check bool) "some factorable moduli" true (n_factorable > 10);
  Alcotest.(check bool) "minority factorable" true
    (n_factorable * 4 < Array.length moduli)

let test_ground_truth_matches_batch_gcd () =
  (* The central end-to-end check: batch GCD over the corpus finds
     exactly the moduli the generator knows share primes. *)
  let w = world () in
  let moduli = W.all_tls_moduli w in
  let truth = W.factorable_ground_truth w in
  let findings = Batchgcd.Batch_gcd.factor_batch moduli in
  let found =
    List.map (fun f -> N.to_limbs f.Batchgcd.Batch_gcd.modulus) findings
    |> List.sort_uniq compare
  in
  let expected =
    Array.to_list moduli
    |> List.filter truth
    |> List.map N.to_limbs |> List.sort_uniq compare
  in
  (* TLS-only GCD can miss moduli whose only sharing partner is an SSH
     key; everything found must be true, and the TLS-internal sharing
     must all be found. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "every finding is ground-truth weak" true
        (truth f.Batchgcd.Batch_gcd.modulus))
    findings;
  let missed =
    List.filter (fun m -> not (List.mem m found)) expected
  in
  (* Those missed must be explained by SSH-only sharing: re-run with
     SSH keys included and they must all appear. *)
  let ssh_moduli =
    Array.to_list (W.devices w)
    |> List.filter_map (fun d ->
           Option.map (fun k -> k.K.pub.K.n) d.W.ssh_key)
  in
  let full =
    Batchgcd.Batch_gcd.factor_batch
      (Batchgcd.Batch_gcd.dedup
         (Array.append moduli (Array.of_list ssh_moduli)))
  in
  let full_found =
    List.map (fun f -> N.to_limbs f.Batchgcd.Batch_gcd.modulus) full
  in
  List.iter
    (fun m ->
      Alcotest.(check bool) "missed moduli found once SSH keys join" true
        (List.mem m full_found))
    missed

(* ---------------- Scanner ---------------- *)

let test_schedule_shape () =
  Alcotest.(check int) "eff scans" 2 (List.length (Sc.schedule Sc.Eff));
  Alcotest.(check int) "pq scans" 1 (List.length (Sc.schedule Sc.Pq));
  Alcotest.(check int) "ecosystem scans" 20
    (List.length (Sc.schedule Sc.Ecosystem));
  Alcotest.(check int) "rapid7 scans" 20 (List.length (Sc.schedule Sc.Rapid7));
  Alcotest.(check int) "censys scans" 11 (List.length (Sc.schedule Sc.Censys));
  (* Chronological overall. *)
  let dates = List.map snd Sc.full_schedule in
  Alcotest.(check bool) "sorted" true
    (List.for_all2 (fun a b -> Date.compare a b <= 0)
       (List.filteri (fun i _ -> i < List.length dates - 1) dates)
       (List.tl dates))

let test_scan_records () =
  let ss = scans () in
  Alcotest.(check int) "54 scans" (List.length Sc.full_schedule)
    (List.length ss);
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s nonempty"
           (Sc.source_name s.Sc.scan_source)
           (Date.to_string s.Sc.scan_date))
        true
        (Array.length s.Sc.records > 0))
    ss

let test_scan_coverage_ordering () =
  (* Censys sees more of the same world than EFF did of its era; check
     within one date impossible, so check coverage constants. *)
  Alcotest.(check bool) "censys > eff coverage" true
    (Sc.coverage Sc.Censys > Sc.coverage Sc.Eff)

let test_rapid7_intermediates () =
  let ss = scans () in
  let r7 =
    List.filter (fun s -> s.Sc.scan_source = Sc.Rapid7) ss
  in
  let has_intermediate =
    List.exists
      (fun s ->
        Array.exists (fun r -> r.Sc.is_intermediate) s.Sc.records)
      r7
  in
  Alcotest.(check bool) "rapid7 emits intermediates" true has_intermediate;
  List.iter
    (fun s ->
      Array.iter
        (fun r ->
          if s.Sc.scan_source <> Sc.Rapid7 then
            Alcotest.(check bool) "others do not" false r.Sc.is_intermediate)
        s.Sc.records)
    ss

let test_rimon_substitution_visible () =
  let w = world () in
  let ss = scans () in
  let rimon_n = (W.rimon_public w).K.n in
  let count_rimon =
    List.fold_left
      (fun acc s ->
        acc
        + Array.fold_left
            (fun acc r ->
              if N.equal r.Sc.cert.Cert.public_key.K.n rimon_n then acc + 1
              else acc)
            0 s.Sc.records)
      0 ss
  in
  Alcotest.(check bool) "rimon key appears in scans" true (count_rimon > 0)

let test_protocol_snapshots () =
  let w = world () in
  let snaps = Sc.protocol_snapshots w in
  Alcotest.(check int) "five protocols" 5 (List.length snaps);
  let find p = List.find (fun s -> s.Sc.protocol = p) snaps in
  let https = find Sc.Https and ssh = find Sc.Ssh in
  Alcotest.(check bool) "https biggest" true
    (https.Sc.total_hosts > ssh.Sc.total_hosts);
  Alcotest.(check bool) "ssh nonempty" true (ssh.Sc.total_hosts > 0);
  Alcotest.(check bool) "ssh rsa subset" true
    (ssh.Sc.rsa_hosts <= ssh.Sc.total_hosts);
  List.iter
    (fun p ->
      let s = find p in
      Alcotest.(check bool) "mail hosts healthy and present" true
        (s.Sc.total_hosts > 0))
    [ Sc.Pop3s; Sc.Imaps; Sc.Smtps ]

let tests =
  [
    Alcotest.test_case "det determinism" `Quick test_det_determinism;
    Alcotest.test_case "det uniformity" `Quick test_det_uniformity;
    Alcotest.test_case "ipv4" `Quick test_ipv4;
    Alcotest.test_case "vendor catalog" `Quick test_vendor_catalog;
    Alcotest.test_case "device model catalog" `Quick test_device_model_catalog;
    Alcotest.test_case "is_weak_at windows" `Quick test_is_weak_at;
    Alcotest.test_case "world nonempty" `Slow test_world_nonempty;
    Alcotest.test_case "world deterministic" `Slow test_world_deterministic;
    Alcotest.test_case "pinned world keys" `Slow test_pinned_world_keys;
    Alcotest.test_case "growth and heartbleed shock" `Slow
      test_population_growth_and_shock;
    Alcotest.test_case "eol decline" `Slow test_population_eol_decline;
    Alcotest.test_case "weak units collide" `Slow test_weak_units_exist_and_collide;
    Alcotest.test_case "ground truth consistency" `Slow
      test_ground_truth_consistency;
    Alcotest.test_case "ground truth = batch gcd" `Slow
      test_ground_truth_matches_batch_gcd;
    Alcotest.test_case "schedule shape" `Quick test_schedule_shape;
    Alcotest.test_case "scan records" `Slow test_scan_records;
    Alcotest.test_case "coverage ordering" `Quick test_scan_coverage_ordering;
    Alcotest.test_case "rapid7 intermediates" `Slow test_rapid7_intermediates;
    Alcotest.test_case "rimon visible" `Slow test_rimon_substitution_visible;
    Alcotest.test_case "protocol snapshots" `Slow test_protocol_snapshots;
  ]
