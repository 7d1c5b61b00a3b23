module Sc = Netsim.Scanner
module Date = X509lite.Date

type point = {
  date : Date.t;
  source : Sc.source;
  total : int;
  vulnerable : int;
}

type series = { name : string; points : point list }

module Scan_ids = Fingerprint.Scan_ids
module Id_set = Corpus.Id_set

let point (s : Sc.scan) total vulnerable =
  { date = s.Sc.scan_date; source = s.Sc.scan_source; total; vulnerable }

let overall ~vulnerable ids =
  let points =
    List.map
      (fun (s : Scan_ids.t) ->
        let total = ref 0 and vuln = ref 0 in
        Array.iteri
          (fun i (r : Sc.host_record) ->
            if not r.Sc.is_intermediate then begin
              incr total;
              if Id_set.mem vulnerable s.Scan_ids.modulus_ids.(i) then
                incr vuln
            end)
          s.Scan_ids.scan.Sc.records;
        point s.Scan_ids.scan !total !vuln)
      ids
  in
  { name = "all hosts"; points }

type keyed = { ids : Scan_ids.t; keys : int array }

(* [totals] and [vulnerables] are scans x keys, row-major. *)
type table = {
  names : string array;
  by_name : (string, int) Hashtbl.t;
  scans : Sc.scan array;
  totals : int array;
  vulnerables : int array;
}

let tabulate ~names ~vulnerable keyed =
  let nk = Array.length names in
  let scans = Array.of_list (List.map (fun k -> k.ids.Scan_ids.scan) keyed) in
  let totals = Array.make (Array.length scans * nk) 0 in
  let vulnerables = Array.make (Array.length scans * nk) 0 in
  List.iteri
    (fun row { ids; keys } ->
      Array.iteri
        (fun i (r : Sc.host_record) ->
          let k = keys.(i) in
          if k >= 0 && not r.Sc.is_intermediate then begin
            let cell = (row * nk) + k in
            totals.(cell) <- totals.(cell) + 1;
            if Id_set.mem vulnerable ids.Scan_ids.modulus_ids.(i) then
              vulnerables.(cell) <- vulnerables.(cell) + 1
          end)
        ids.Scan_ids.scan.Sc.records)
    keyed;
  let by_name = Hashtbl.create (Stdlib.max 16 nk) in
  Array.iteri (fun k name -> Hashtbl.replace by_name name k) names;
  { names; by_name; scans; totals; vulnerables }

let names t = t.names
let index t name = Hashtbl.find_opt t.by_name name

let series t name =
  let cell =
    match index t name with
    | Some k -> fun row a -> a.((row * Array.length t.names) + k)
    | None -> fun _ _ -> 0
  in
  let points =
    Array.mapi
      (fun row s -> point s (cell row t.totals) (cell row t.vulnerables))
      t.scans
  in
  { name; points = Array.to_list points }

let peak_total s =
  List.fold_left (fun acc p -> Stdlib.max acc p.total) 0 s.points

let peak_vulnerable s =
  List.fold_left (fun acc p -> Stdlib.max acc p.vulnerable) 0 s.points

let value_at s date =
  let best = ref None in
  List.iter
    (fun p ->
      let d = abs (Date.diff_days p.date date) in
      match !best with
      | Some (bd, _) when bd <= d -> ()
      | _ -> if d <= 45 then best := Some (d, p))
    s.points;
  Option.map snd !best

let largest_vulnerable_drop s =
  let rec go prev best = function
    | [] -> best
    | p :: rest ->
      let best =
        match prev with
        | Some q when q.vulnerable - p.vulnerable > 0 -> (
          let drop = q.vulnerable - p.vulnerable in
          match best with
          | Some (_, b) when b >= drop -> best
          | _ -> Some (p.date, drop))
        | _ -> best
      in
      go (Some p) best rest
  in
  go None None s.points
