type t = {
  mutable attempted : int;
  mutable samples : float list;  (** most recent first *)
  mutable errors : string list;  (** most recent first *)
}

let create () = { attempted = 0; samples = []; errors = [] }

let fail t reason =
  t.errors <- reason :: t.errors;
  None

let run t f ~check =
  t.attempted <- t.attempted + 1;
  let t0 = Unix.gettimeofday () in
  match f () with
  | exception e -> fail t (Printexc.to_string e)
  | v -> (
    let dt = Unix.gettimeofday () -. t0 in
    match check v with
    | Ok () ->
      t.samples <- dt :: t.samples;
      Some (v, dt)
    | Error reason -> fail t reason
    | exception e -> fail t ("check raised " ^ Printexc.to_string e))

let attempted t = t.attempted
let failed t = List.length t.errors
let samples t = List.rev t.samples
let errors t = List.rev t.errors

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
