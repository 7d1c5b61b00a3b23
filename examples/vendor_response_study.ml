(* Vendor-response study (paper Section 4): build a scaled-down
   simulated internet, run the full measurement pipeline, and compare
   vulnerable-population trajectories across disclosure-response
   categories — did a public advisory help end users at all?

   Run: dune exec examples/vendor_response_study.exe [scale]
   (default scale 0.1; 1.0 reproduces the calibrated populations) *)

module Date = X509lite.Date
module P = Weakkeys.Pipeline
module Ts = Analysis.Timeseries

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.1
  in
  let cfg =
    { Netsim.World.default_config with Netsim.World.scale; seed = "vendor-study" }
  in
  Printf.printf "building world at scale %.2f and running pipeline...\n%!" scale;
  let p = P.run ~progress:(fun m -> Printf.printf "  %s\n%!" m) cfg in

  let vendors =
    [ "Juniper"; "Innominate"; "IBM"; "Cisco"; "HP"; "ZyXEL"; "TP-Link" ]
  in
  Printf.printf "\n%-12s %-18s %10s %10s %10s %10s\n" "Vendor" "Response"
    "vuln@2012" "vuln@2014" "vuln@2016" "advisory";
  List.iter
    (fun name ->
      let v = Netsim.Vendor.find name in
      let s = P.vendor_series p name in
      let at y m =
        match Ts.value_at s (Date.of_ymd y m 15) with
        | Some pt -> string_of_int pt.Ts.vulnerable
        | None -> "-"
      in
      Printf.printf "%-12s %-18s %10s %10s %10s %10s\n" name
        (Netsim.Vendor.response_to_string v.Netsim.Vendor.response)
        (at 2012 6) (at 2014 3) (at 2016 4)
        (match v.Netsim.Vendor.advisory_date with
        | Some d -> Date.month_label d
        | None -> "never"))
    vendors;

  (* The paper's Juniper deep dive: transition counting. *)
  let tr = P.transitions p "Juniper" in
  Printf.printf
    "\nJuniper IP transitions over the whole corpus:\n\
    \  %d IPs ever served a Juniper certificate, %d ever vulnerable\n\
    \  %d went vulnerable->ok, %d ok->vulnerable, %d flapped repeatedly\n"
    tr.Analysis.Transitions.ips_ever tr.Analysis.Transitions.ips_vulnerable_ever
    tr.Analysis.Transitions.to_ok tr.Analysis.Transitions.to_vulnerable
    tr.Analysis.Transitions.flapping;
  print_newline ();
  print_string (Weakkeys.Report.figure3 p);
  print_string (Weakkeys.Report.figure4 p);
  print_string
    "Conclusion (matching the paper): vendor response category shows no\n\
     visible correlation with end-user vulnerability trajectories; the\n\
     populations decline only through device churn and the Heartbleed\n\
     shock, not through patching.\n"
