module Date = X509lite.Date
module Dn = X509lite.Dn
module Cert = X509lite.Certificate
module K = Rsa.Keypair
module N = Bignum.Nat
module Rng = Entropy.Device_rng

type config = {
  seed : string;
  scale : float;
  modulus_bits : int;
  rimon_frac : float;
  domains : int option;
}

let default_config =
  {
    seed = "weakkeys-imc16";
    scale = 1.0;
    modulus_bits = 96;
    rimon_frac = 0.0012;
    domains = None;
  }

type epoch = { from_date : Date.t; key : K.private_key; cert : Cert.t }

type device = {
  dev_id : string;
  model : Device_model.t;
  deploy : Date.t;
  death : Date.t option;
  weak_unit : bool;
  epochs : epoch array;
  ips : (Date.t * Ipv4.t) array;
  ssh_key : K.private_key option;
}

type t = {
  cfg : config;
  devs : device array;
  ca : K.private_key;
  ca_certificate : Cert.t;
  rimon : K.private_key;
  primes : Corpus.Store.t;  (** ground-truth primes, interned *)
  prime_counts : (int, int) Hashtbl.t;
      (** prime id -> number of distinct moduli using it *)
  moduli : N.t array;  (** distinct TLS moduli *)
}

let start_date = Date.of_ymd 2005 1 1
let end_date = Date.of_ymd 2016 5 31
let heartbleed_date = Date.of_ymd 2014 4 7
let ssh_snapshot_date = Date.of_ymd 2015 10 29

(* ------------------------------------------------------------------ *)
(* Phase A: population dynamics                                        *)
(* ------------------------------------------------------------------ *)

type proto = {
  p_id : string;
  p_model : Device_model.t;
  p_deploy : Date.t;
  mutable p_death : Date.t option;
  mutable p_regens : Date.t list; (* newest first *)
  mutable p_ips : Date.t list; (* IP-change months, newest first *)
}

(* Probabilistic rounding keeps small expected values from always
   truncating to zero. *)
let prob_round key x =
  let f = Float.of_int (int_of_float (floor x)) in
  int_of_float f + (if Det.float key < x -. f then 1 else 0)

let target_population cfg (m : Device_model.t) date =
  let dyn = m.Device_model.dynamics in
  let msi = Date.months_between date dyn.Device_model.intro in
  if msi < 0 then 0
  else begin
    let ramp =
      Float.min 1.0
        (Float.of_int (msi + 1) /. Float.of_int (Stdlib.max 1 dyn.ramp_months))
    in
    let decline =
      match dyn.decline_start with
      | None -> 1.0
      | Some ds ->
        let k = Date.months_between date ds in
        if k <= 0 then 1.0 else (1.0 -. dyn.decline_monthly) ** Float.of_int k
    in
    let shock =
      if dyn.heartbleed_shock > 0. && Date.(heartbleed_date <= date) then
        1.0 -. dyn.heartbleed_shock
      else 1.0
    in
    int_of_float
      (Float.round (cfg.scale *. Float.of_int dyn.peak *. ramp *. decline *. shock))
  end

(* Retire [k] devices chosen by deterministic per-device draws. *)
let retire_some ~salt date k alive =
  if k <= 0 then alive
  else begin
    let scored =
      List.map
        (fun p ->
          (Det.float (p.p_id ^ "/" ^ salt ^ "/" ^ Date.to_string date), p))
        alive
    in
    let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) scored in
    List.iteri (fun i (_, p) -> if i < k then p.p_death <- Some date) sorted;
    List.filter_map (fun (_, p) -> if p.p_death = None then Some p else None)
      sorted
  end

let simulate_model cfg (m : Device_model.t) =
  let dyn = m.Device_model.dynamics in
  let all = ref [] in
  let alive = ref [] in
  let counter = ref 0 in
  let spawn date k =
    for _ = 1 to k do
      let p =
        {
          p_id = Printf.sprintf "%s#%d" m.Device_model.id !counter;
          p_model = m;
          p_deploy = date;
          p_death = None;
          p_regens = [];
          p_ips = [];
        }
      in
      incr counter;
      all := p :: !all;
      alive := p :: !alive
    done
  in
  let month = ref (Date.first_of_month dyn.Device_model.intro) in
  while Date.(!month <= end_date) do
    let date = !month in
    let ds = Date.to_string date in
    let target = target_population cfg m date in
    let n = List.length !alive in
    if n < target then spawn date (target - n)
    else if n > target then alive := retire_some ~salt:"shrink" date (n - target) !alive;
    (* Churn: retire a slice and replace it with new units. *)
    let churn =
      prob_round
        (m.Device_model.id ^ "/churn/" ^ ds)
        (dyn.churn_monthly *. Float.of_int (List.length !alive))
    in
    if churn > 0 then begin
      alive := retire_some ~salt:"churn" date churn !alive;
      spawn date churn
    end;
    (* Certificate regeneration and IP churn. *)
    List.iter
      (fun p ->
        if Det.bool (p.p_id ^ "/regen/" ^ ds) ~p:dyn.regen_monthly then
          p.p_regens <- date :: p.p_regens;
        if Det.bool (p.p_id ^ "/ipmove/" ^ ds) ~p:dyn.ip_churn_monthly then
          p.p_ips <- date :: p.p_ips)
      !alive;
    month := Date.add_months date 1
  done;
  List.rev !all

(* ------------------------------------------------------------------ *)
(* Phase B: key material                                               *)
(* ------------------------------------------------------------------ *)

let ten_years = 3653

(* The boot-state space is a firmware property, not a population one:
   when the world is scaled down, the space must shrink with it or the
   collision rate (the thing the study measures) would vanish. *)
let scaled_bits cfg bits =
  if cfg.scale >= 1.0 then bits
  else
    Stdlib.max 1
      (bits + int_of_float (Float.round (Float.log cfg.scale /. Float.log 2.)))

let scaled_profile cfg (p : Rng.profile) =
  Rng.vulnerable_shared_prime p.Rng.name
    ~bits:(scaled_bits cfg p.Rng.boot_entropy_bits)

let gen_key cfg (m : Device_model.t) ~dev_path ~weak_unit ~epoch_idx =
  let bits = cfg.modulus_bits in
  let path = Printf.sprintf "%s/%s/key/%d" cfg.seed dev_path epoch_idx in
  if not weak_unit then K.generate ~style:K.Plain ~gen:(Det.gen_fn path) ~bits ()
  else
    match m.Device_model.keygen with
    | Device_model.Ibm_keygen -> Rsa.Ibm.generate ~gen:(Det.gen_fn path) ~bits
    | Device_model.Profile_keygen { weak_profile; style } ->
      let rng =
        Rng.boot (scaled_profile cfg weak_profile) ~device_unique:dev_path
          ~boot_state:(Det.int (path ^ "/boot") (1 lsl 30))
      in
      K.generate_on_device ~style ~rng ~bits ()

let make_cert cfg ~ca ~ca_dn (m : Device_model.t) ~dev_path ~epoch_idx ~date key
    =
  let subject, sans = m.Device_model.identity ~seed:(cfg.seed ^ "/" ^ dev_path) in
  let serial =
    N.of_bytes_be (Det.bytes (cfg.seed ^ "/" ^ dev_path ^ "/serial/"
                              ^ string_of_int epoch_idx) 8)
  in
  let not_before = date and not_after = Date.add_days date ten_years in
  (* Only the generic population carries CA-signed certificates; the
     vulnerable devices in the paper were almost all self-signed. *)
  if
    m.Device_model.id = "generic-web"
    && Det.bool (cfg.seed ^ "/" ^ dev_path ^ "/casigned") ~p:0.3
  then
    Cert.sign_with ~serial ~subject ~subject_alt_names:sans ~not_before
      ~not_after ~subject_key:key.K.pub ~issuer:ca_dn ~issuer_key:ca ()
  else
    Cert.self_sign ~serial ~subject ~subject_alt_names:sans ~not_before
      ~not_after ~key ()

let materialize cfg ~ca ~ca_dn (p : proto) =
  let m = p.p_model in
  let weak_unit =
    Device_model.is_weak_at m p.p_deploy
    && Det.float (cfg.seed ^ "/" ^ p.p_id ^ "/weakdraw")
       < m.Device_model.weak_frac
  in
  let epoch_dates = p.p_deploy :: List.rev p.p_regens in
  let epochs =
    Array.of_list
      (List.mapi
         (fun i date ->
           let key = gen_key cfg m ~dev_path:p.p_id ~weak_unit ~epoch_idx:i in
           let cert =
             make_cert cfg ~ca ~ca_dn m ~dev_path:p.p_id ~epoch_idx:i ~date key
           in
           { from_date = date; key; cert })
         epoch_dates)
  in
  let ips =
    let moves = List.rev p.p_ips in
    Array.of_list
      ((p.p_deploy, Ipv4.of_key (cfg.seed ^ "/" ^ p.p_id ^ "/ip0"))
      :: List.mapi
           (fun i d ->
             (d, Ipv4.of_key (Printf.sprintf "%s/%s/ip%d" cfg.seed p.p_id (i + 1))))
           moves)
  in
  let alive_at_ssh =
    Date.(p.p_deploy <= ssh_snapshot_date)
    && match p.p_death with None -> true | Some dd -> Date.(ssh_snapshot_date < dd)
  in
  let ssh_key =
    if m.Device_model.serves_ssh && alive_at_ssh then begin
      let path = cfg.seed ^ "/" ^ p.p_id ^ "/ssh" in
      if not weak_unit then
        Some (K.generate ~style:K.Plain ~gen:(Det.gen_fn path)
                ~bits:cfg.modulus_bits ())
      else
        match m.Device_model.keygen with
        | Device_model.Ibm_keygen ->
          Some (Rsa.Ibm.generate ~gen:(Det.gen_fn path) ~bits:cfg.modulus_bits)
        | Device_model.Profile_keygen { weak_profile; style } ->
          let ssh_profile =
            Rng.vulnerable_shared_prime
              (weak_profile.Rng.name ^ "-ssh")
              ~bits:(scaled_bits cfg weak_profile.Rng.boot_entropy_bits)
          in
          let rng =
            Rng.boot ssh_profile ~device_unique:p.p_id
              ~boot_state:(Det.int (path ^ "/boot") (1 lsl 30))
          in
          Some (K.generate_on_device ~style ~rng ~bits:cfg.modulus_bits ())
    end
    else None
  in
  {
    dev_id = p.p_id;
    model = m;
    deploy = p.p_deploy;
    death = p.p_death;
    weak_unit;
    epochs;
    ips;
    ssh_key;
  }

(* ------------------------------------------------------------------ *)
(* Build                                                               *)
(* ------------------------------------------------------------------ *)

let build ?(progress = fun _ -> ()) cfg =
  progress "simulating population dynamics";
  let protos =
    List.concat_map (simulate_model cfg) Device_model.catalog |> Array.of_list
  in
  progress (Printf.sprintf "materializing %d devices" (Array.length protos));
  let ca =
    K.generate ~style:K.Plain ~gen:(Det.gen_fn (cfg.seed ^ "/ca"))
      ~bits:cfg.modulus_bits ()
  in
  let ca_dn = Dn.make ~cn:"TrustCo Issuing CA" ~o:"TrustCo" () in
  let ca_certificate =
    Cert.self_sign
      ~serial:(N.of_int 1)
      ~subject:ca_dn
      ~not_before:start_date
      ~not_after:(Date.add_days end_date ten_years)
      ~key:ca ()
  in
  let rimon =
    K.generate ~style:K.Plain ~gen:(Det.gen_fn (cfg.seed ^ "/rimon"))
      ~bits:cfg.modulus_bits ()
  in
  (* Force the shared IBM prime pool before fanning out: the memo
     table is mutex-guarded, but populating it once here keeps the
     expensive pool generation off the workers entirely. *)
  ignore (Rsa.Ibm.primes ~bits:(cfg.modulus_bits / 2));
  let devs = Parallel.Pool.map ?domains:cfg.domains
      (materialize cfg ~ca ~ca_dn) protos
  in
  progress "indexing ground truth";
  (* Count distinct moduli per prime over TLS epochs and SSH keys;
     primes are interned to dense ids, counts keyed on the id. *)
  let primes = Corpus.Store.create ~size:65536 () in
  let prime_counts : (int, int) Hashtbl.t = Hashtbl.create 65536 in
  let seen_moduli = Corpus.Store.create ~size:65536 () in
  let moduli = ref [] in
  let note_key (k : K.private_key) =
    let n = k.K.pub.K.n in
    if not (Corpus.Store.mem seen_moduli n) then begin
      ignore (Corpus.Store.intern seen_moduli n);
      List.iter
        (fun pr ->
          let id = Corpus.Store.intern primes pr in
          Hashtbl.replace prime_counts id
            (1 + Option.value ~default:0 (Hashtbl.find_opt prime_counts id)))
        [ k.K.p; k.K.q ]
    end
  in
  Array.iter
    (fun d ->
      Array.iter (fun e -> note_key e.key) d.epochs;
      (match d.ssh_key with Some k -> note_key k | None -> ()))
    devs;
  (* Distinct TLS moduli only (SSH keys are folded into the GCD corpus
     separately by the pipeline, as the paper did). *)
  let seen_tls = Corpus.Store.create ~size:65536 () in
  Array.iter
    (fun d ->
      Array.iter
        (fun e ->
          let n = e.key.K.pub.K.n in
          if not (Corpus.Store.mem seen_tls n) then begin
            ignore (Corpus.Store.intern seen_tls n);
            moduli := n :: !moduli
          end)
        d.epochs)
    devs;
  {
    cfg;
    devs;
    ca;
    ca_certificate;
    rimon;
    primes;
    prime_counts;
    moduli = Array.of_list (List.rev !moduli);
  }

let config t = t.cfg
let devices t = t.devs
let ca_key t = t.ca
let ca_cert t = t.ca_certificate
let rimon_public t = t.rimon.K.pub

let is_rimon_customer t d =
  d.model.Device_model.id = "generic-web"
  && Det.float (t.cfg.seed ^ "/" ^ d.dev_id ^ "/rimon") < t.cfg.rimon_frac

let alive d date =
  Date.(d.deploy <= date)
  && match d.death with None -> true | Some dd -> Date.(date < dd)

let cert_at d date =
  if not (alive d date) then None
  else begin
    let best = ref None in
    Array.iter
      (fun e -> if Date.(e.from_date <= date) then best := Some e.cert)
      d.epochs;
    !best
  end

let key_at d date =
  if not (alive d date) then None
  else begin
    let best = ref None in
    Array.iter
      (fun e -> if Date.(e.from_date <= date) then best := Some e.key)
      d.epochs;
    !best
  end

let ip_at d date =
  let best = ref (snd d.ips.(0)) in
  Array.iter (fun (from, ip) -> if Date.(from <= date) then best := ip) d.ips;
  !best

let all_tls_moduli t = Array.copy t.moduli

let prime_sharing_count t p =
  match Corpus.Store.find t.primes p with
  | Some id -> Option.value ~default:0 (Hashtbl.find_opt t.prime_counts id)
  | None -> 0

let factor_table t =
  (* modulus id -> its two primes, over every key in the corpus *)
  let store = Corpus.Store.create ~size:65536 () in
  let factors : (int, N.t * N.t) Hashtbl.t = Hashtbl.create 65536 in
  let note (k : K.private_key) =
    Hashtbl.replace factors (Corpus.Store.intern store k.K.pub.K.n)
      (k.K.p, k.K.q)
  in
  Array.iter
    (fun d ->
      Array.iter (fun e -> note e.key) d.epochs;
      match d.ssh_key with Some k -> note k | None -> ())
    t.devs;
  fun n ->
    match Corpus.Store.find store n with
    | Some id -> Hashtbl.find_opt factors id
    | None -> None

let factors_of t = factor_table t

let factorable_ground_truth t =
  let factors = factor_table t in
  fun n ->
    match factors n with
    | None -> false
    | Some (p, q) ->
      prime_sharing_count t p >= 2 || prime_sharing_count t q >= 2
