exception Worker_failure of exn

let default_domains () =
  match Sys.getenv_opt "WEAKKEYS_DOMAINS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> invalid_arg "WEAKKEYS_DOMAINS: expected a positive integer")
  | None -> Stdlib.max 1 (Domain.recommended_domain_count ())

type t = {
  size : int;
  mutex : Mutex.t;  (* guards every mutable field below *)
  work : Condition.t;  (* a new generation was published *)
  idle : Condition.t;  (* the last gang member finished *)
  busy : Mutex.t;  (* serialises whole gangs on this pool *)
  mutable generation : int;
  mutable body : (unit -> unit) option;  (* claim loop of the current gang *)
  mutable pending : int;  (* workers still inside the current gang *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

(* True while the current domain is executing gang work; parallel calls
   made from such a context run inline instead of waiting on workers
   that are already occupied. *)
let inside : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let make size =
  {
    size;
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    busy = Mutex.create ();
    generation = 0;
    body = None;
    pending = 0;
    stop = false;
    workers = [];
  }

let size t = t.size

(* ------------------------------------------------------------------ *)
(* Pool registry: memoized by size, workers joined at exit             *)
(* ------------------------------------------------------------------ *)

let pools : (int, t) Hashtbl.t = Hashtbl.create 4
let pools_mutex = Mutex.create ()
(* Deliberate process-wide state: the whole point of the pool is that
   domains persist across calls. *)
let exit_hook_installed = ref false (* lint: allow toplevel-ref *)

let shutdown_all () =
  let live =
    Mutex.lock pools_mutex;
    let ps = Hashtbl.fold (fun _ t acc -> t :: acc) pools [] in
    Mutex.unlock pools_mutex;
    ps
  in
  List.iter
    (fun t ->
      Mutex.lock t.mutex;
      t.stop <- true;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      List.iter Domain.join t.workers;
      t.workers <- [])
    live

let get ?domains () =
  let n =
    match domains with
    | Some d -> Stdlib.max 1 d
    | None -> default_domains ()
  in
  Mutex.lock pools_mutex;
  let t =
    match Hashtbl.find_opt pools n with
    | Some t -> t
    | None ->
      let t = make n in
      Hashtbl.replace pools n t;
      t
  in
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit shutdown_all
  end;
  Mutex.unlock pools_mutex;
  t

(* ------------------------------------------------------------------ *)
(* Gang scheduling                                                     *)
(* ------------------------------------------------------------------ *)

let rec worker_loop t last =
  Mutex.lock t.mutex;
  while t.generation = last && not t.stop do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let gen = t.generation in
    let body = match t.body with Some b -> b | None -> assert false in
    Mutex.unlock t.mutex;
    body ();
    Mutex.lock t.mutex;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.mutex;
    worker_loop t gen
  end

(* Run [body] on the caller plus every pool worker; returns once all of
   them have drained the claim loop. [body] must not raise (the claim
   loops below record failures instead). *)
let run_gang t body =
  Mutex.lock t.busy;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.busy)
    (fun () ->
      Mutex.lock t.mutex;
      if t.workers = [] then
        t.workers <-
          List.init (t.size - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
      t.body <- Some body;
      t.pending <- t.size - 1;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work;
      Mutex.unlock t.mutex;
      body ();
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.idle t.mutex
      done;
      t.body <- None;
      Mutex.unlock t.mutex)

(* ------------------------------------------------------------------ *)
(* Deterministic failure recording                                     *)
(* ------------------------------------------------------------------ *)

(* Keep the failure with the smallest index; jobs keep running so the
   winner does not depend on scheduling. *)
let record failure i e =
  let rec cas () =
    let cur = Atomic.get failure in
    let replace =
      match cur with None -> true | Some (j, _) -> i < j
    in
    if replace && not (Atomic.compare_and_set failure cur (Some (i, e))) then
      cas ()
  in
  cas ()

let seq_for lo hi f =
  (* Same contract as the parallel path: every index runs, the first
     (= smallest-index) failure is reported. *)
  let failure = ref None in
  for i = lo to hi - 1 do
    try f i
    with e -> ( match !failure with None -> failure := Some e | Some _ -> ())
  done;
  match !failure with Some e -> raise (Worker_failure e) | None -> ()

let parallel_for ?pool ?chunk lo hi f =
  if hi - lo <= 1 || Domain.DLS.get inside then seq_for lo hi f
  else begin
    let t = match pool with Some p -> p | None -> get () in
    if t.size = 1 then seq_for lo hi f
    else begin
      let chunk =
        match chunk with
        | Some c -> Stdlib.max 1 c
        | None -> Stdlib.max 1 ((hi - lo) / (8 * t.size))
      in
      let failure = Atomic.make None in
      let next = Atomic.make lo in
      let body () =
        Domain.DLS.set inside true;
        let rec claim () =
          let start = Atomic.fetch_and_add next chunk in
          if start < hi then begin
            let stop = Stdlib.min hi (start + chunk) in
            for i = start to stop - 1 do
              try f i with e -> record failure i e
            done;
            claim ()
          end
        in
        claim ();
        Domain.DLS.set inside false
      in
      run_gang t body;
      match Atomic.get failure with
      | Some (_, e) -> raise (Worker_failure e)
      | None -> ()
    end
  end

let map ?pool ?(chunk = 1) f jobs =
  let n = Array.length jobs in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    parallel_for ?pool ~chunk 0 n (fun i ->
        results.(i) <- Some (f jobs.(i)));
    Array.map (function Some r -> r | None -> assert false) results
  end

let init ?pool ?chunk n f =
  map ?pool ?chunk f (Array.init n Fun.id)
