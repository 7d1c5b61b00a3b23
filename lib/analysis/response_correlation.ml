type outcome = {
  vendor : string;
  response : Netsim.Vendor.response;
  peak_vulnerable : int;
  final_vulnerable : int;
  decline_fraction : float;
}

let outcomes table vendors =
  List.map
    (fun name ->
      let s = Timeseries.series table name in
      let peak = Timeseries.peak_vulnerable s in
      let final =
        match List.rev s.Timeseries.points with
        | p :: _ -> p.Timeseries.vulnerable
        | [] -> 0
      in
      let decline =
        if peak = 0 then 0.
        else Float.of_int (peak - final) /. Float.of_int peak
      in
      {
        vendor = name;
        response = (Netsim.Vendor.find name).Netsim.Vendor.response;
        peak_vulnerable = peak;
        final_vulnerable = final;
        decline_fraction = decline;
      })
    vendors

let response_strength = function
  | Netsim.Vendor.Public_advisory -> 4.
  | Netsim.Vendor.Private_response -> 3.
  | Netsim.Vendor.Auto_response -> 2.
  | Netsim.Vendor.No_response -> 1.
  | Netsim.Vendor.Not_notified -> 0.

let by_category outs =
  List.filter_map
    (fun resp ->
      let members = List.filter (fun o -> o.response = resp) outs in
      match members with
      | [] -> None
      | _ ->
        let mean =
          List.fold_left (fun acc o -> acc +. o.decline_fraction) 0. members
          /. Float.of_int (List.length members)
        in
        Some (resp, mean, List.length members))
    [
      Netsim.Vendor.Public_advisory;
      Netsim.Vendor.Private_response;
      Netsim.Vendor.Auto_response;
      Netsim.Vendor.No_response;
      Netsim.Vendor.Not_notified;
    ]

(* Average ranks for ties, then Pearson on the ranks. *)
let ranks values =
  let n = Array.length values in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare values.(a) values.(b)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while
      !j + 1 < n && values.(order.(!j + 1)) = values.(order.(!i))
    do
      incr j
    done;
    let avg = Float.of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      r.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman outs =
  let outs = List.filter (fun o -> o.peak_vulnerable > 0) outs in
  let n = List.length outs in
  if n < 3 then Float.nan
  else begin
    let xs = Array.of_list (List.map (fun o -> response_strength o.response) outs) in
    let ys = Array.of_list (List.map (fun o -> o.decline_fraction) outs) in
    let rx = ranks xs and ry = ranks ys in
    let mean a = Array.fold_left ( +. ) 0. a /. Float.of_int n in
    let mx = mean rx and my = mean ry in
    let cov = ref 0. and vx = ref 0. and vy = ref 0. in
    for i = 0 to n - 1 do
      let dx = rx.(i) -. mx and dy = ry.(i) -. my in
      cov := !cov +. (dx *. dy);
      vx := !vx +. (dx *. dx);
      vy := !vy +. (dy *. dy)
    done;
    if !vx = 0. || !vy = 0. then Float.nan
    else !cov /. Float.sqrt (!vx *. !vy)
  end
