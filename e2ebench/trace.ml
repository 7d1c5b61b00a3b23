type span = {
  id : int;
  name : string;
  parent : int option;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  mutable next : int;
  mutable open_ : int list;  (** innermost first *)
  mutable closed : span list;  (** most recent first *)
}

let create ~enabled = { enabled; next = 0; open_ = []; closed = [] }
let enabled t = t.enabled

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> Some p | [] -> None in
    t.open_ <- id :: t.open_;
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      t.open_ <- List.tl t.open_;
      t.closed <- { id; name; parent; start; stop } :: t.closed
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

let duration s = s.stop -. s.start

let children spans s = List.filter (fun c -> c.parent = Some s.id) spans

(* Union of the children's intervals, clipped to the parent, so that
   self time never goes negative on a clock that steps. *)
let covered spans s =
  let ivs =
    children spans s
    |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
    |> List.filter (fun (a, b) -> b > a)
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
      | None -> go acc (Some (a, b)) rest)
  in
  go 0. None ivs

let self_time spans s = duration s -. covered spans s
let named spans name = List.filter (fun s -> String.equal s.name name) spans

let total spans name =
  List.fold_left (fun acc s -> acc +. duration s) 0. (named spans name)

let self_total spans name =
  List.fold_left (fun acc s -> acc +. self_time spans s) 0. (named spans name)

let count spans name = List.length (named spans name)

let coverage spans ~parent =
  let parents = named spans parent in
  let whole = List.fold_left (fun acc s -> acc +. duration s) 0. parents in
  let kids =
    List.fold_left (fun acc s -> acc +. covered spans s) 0. parents
  in
  if parents = [] then Float.nan else kids /. whole
