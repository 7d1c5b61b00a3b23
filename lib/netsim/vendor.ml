type response =
  | Public_advisory
  | Private_response
  | Auto_response
  | No_response
  | Not_notified

type t = {
  name : string;
  response : response;
  advisory_date : X509lite.Date.t option;
  notified_2012 : bool;
  ssh_only : bool;
}

let response_to_string = function
  | Public_advisory -> "Public Advisory"
  | Private_response -> "Private Response"
  | Auto_response -> "Auto-Response"
  | No_response -> "No Response"
  | Not_notified -> "Not Notified"

let d = X509lite.Date.of_ymd

let mk ?(ssh_only = false) ?advisory name response =
  { name; response; advisory_date = advisory; notified_2012 = true; ssh_only }

(* Table 2 reconstruction. The column layout is partially garbled in
   the source text; placements are pinned by Section 4 where it is
   explicit: five public advisories (Juniper, Innominate, IBM, plus
   Intel and Tropos for SSH keys); Cisco and HP responded privately;
   the ten Figure-9 vendors (incl. Dell, McAfee, AVM/Fritz!Box,
   Technicolor/Thomson) and D-Link never responded. The remaining
   vendors are distributed to match "about half acknowledged
   receipt". Advisory dates from Section 4.1. *)
let table2 =
  [
    (* Public Advisory *)
    mk "IBM" Public_advisory ~advisory:(d 2012 9 15);
    mk "Juniper" Public_advisory ~advisory:(d 2012 4 15);
    mk "Innominate" Public_advisory ~advisory:(d 2012 6 15);
    mk "Intel" Public_advisory ~advisory:(d 2012 7 15) ~ssh_only:true;
    mk "Tropos" Public_advisory ~advisory:(d 2012 8 15) ~ssh_only:true;
    (* Private Response *)
    mk "Cisco" Private_response;
    mk "HP" Private_response;
    mk "Emerson" Private_response;
    mk "Hillstone Networks" Private_response;
    mk "Motorola" Private_response;
    mk "Kyocera" Private_response;
    (* Auto-Response *)
    mk "Pogoplug" Auto_response;
    mk "NTI" Auto_response;
    mk "Haivision" Auto_response;
    mk "AudioCodes" Auto_response;
    mk "Ruckus" Auto_response;
    mk "Simton" Auto_response;
    mk "JDSU" Auto_response;
    mk "Pronto" Auto_response;
    (* No Response *)
    mk "Brocade" No_response;
    mk "ZyXEL" No_response;
    mk "Sentry" No_response;
    mk "TP-Link" No_response;
    mk "Fortinet" No_response;
    mk "2-Wire" No_response;
    mk "Sinetica" No_response;
    mk "D-Link" No_response;
    mk "Xerox" No_response;
    mk "SkyStream" No_response;
    mk "Kronos" No_response;
    mk "BelAir" No_response;
    mk "Linksys" No_response;
    mk "MRV" No_response;
    mk "McAfee" No_response;
    mk "Dell" No_response;
    mk "AVM" No_response;
    mk "Technicolor" No_response;
  ]

let not_notified name =
  {
    name;
    response = Not_notified;
    advisory_date = None;
    notified_2012 = false;
    ssh_only = false;
  }

(* Section 4.4: vendors with newly vulnerable product versions since
   2012. D-Link is already in Table 2 and is not repeated here. ADTRAN
   was notified in 2012 (about SSH DSA) and responded then. *)
let newly_vulnerable_2016 =
  [
    { (mk "ADTRAN" Private_response ~ssh_only:true) with ssh_only = true };
    {
      (not_notified "Huawei") with
      advisory_date = Some (d 2016 8 15) (* CVE-2016-6670 *);
    };
    not_notified "Sangfor";
    not_notified "Schmid Telecom";
  ]

(* Vendors that appear in figures or fingerprint tables but not in the
   Table-2 notification list. *)
let additional = [ not_notified "Siemens"; not_notified "Generic" ]

let all = table2 @ newly_vulnerable_2016 @ additional

let find name = List.find (fun v -> v.name = name) all
