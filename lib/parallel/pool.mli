(** A persistent domain pool.

    The paper's cluster ran the k-subset batch GCD across 22 machines;
    we parallelise across OCaml 5 domains on one host. Every parallel
    construct in this codebase goes through this module (enforced by
    the [domain-outside-parallel] lint rule): worker domains are
    spawned once per pool size and reused, so callers stop paying a
    [Domain.spawn] per parallel call.

    Scheduling is gang-style: a parallel call publishes a shared claim
    loop, the caller and every pool worker pull chunks of indices from
    an atomic counter, and the caller waits until the whole gang is
    idle again. Re-entrant calls — a job that itself calls {!map} on
    any pool — are detected via domain-local state and run inline
    sequentially, so nesting can never deadlock the pool. *)

type t
(** A pool of [size - 1] worker domains plus the calling domain. *)

exception Worker_failure of exn
(** Wraps the failure with the {e smallest job index}. Every job runs
    to completion (or failure) regardless of other failures, so the
    reported exception is deterministic for a deterministic job
    function — the same one a sequential left-to-right run would hit
    first. *)

val default_domains : unit -> int
(** The [WEAKKEYS_DOMAINS] environment variable when set (a positive
    integer), otherwise [Domain.recommended_domain_count ()], at
    least 1.
    @raise Invalid_argument on a malformed [WEAKKEYS_DOMAINS]. *)

val get : ?domains:int -> unit -> t
(** [get ()] is the process-wide pool sized {!default_domains};
    [get ~domains ()] a pool of exactly [max 1 domains] domains. Pools
    are memoized by size and their workers spawned lazily on first
    use, then kept alive (and joined via [at_exit]) — repeated calls
    return the same pool. *)

val size : t -> int
(** Total parallelism including the calling domain; [size >= 1]. *)

val parallel_for :
  ?pool:t -> ?chunk:int -> int -> int -> (int -> unit) -> unit
(** [parallel_for lo hi f] runs [f i] for every [lo <= i < hi],
    distributing chunks of [chunk] consecutive indices (default:
    [max 1 ((hi - lo) / (8 * size))]) over [pool] (default: [get ()]). [f] must be safe
    to run concurrently and must not rely on execution order. Runs
    sequentially when the pool has size 1, when [hi - lo <= 1], or
    when called from inside another parallel region.
    @raise Worker_failure on the smallest failing index. *)

val map : ?pool:t -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f jobs] applies [f] to every element, preserving order.
    Chunk size defaults to 1 (a plain work queue — right for few,
    heavy, unevenly-sized jobs). Same sequential fallbacks and failure
    semantics as {!parallel_for}. *)

val init : ?pool:t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is a parallel [Array.init n f]. *)
