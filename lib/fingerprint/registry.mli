(** The pass registry and scheduler.

    {!builtin} holds the six techniques of the paper's Section 3.3/4
    as {!Pass.t} values; {!run} executes any pass list over a shared
    {!Pass.Ctx.t}: passes are topologically ordered by their declared
    deps into waves, each wave's passes run concurrently on the
    {!Parallel.Pool}, and every pass's evidence and artifacts are
    merged into one {!Attribution.t} in registration order — so the
    resulting table is identical at any domain count.

    Built-in dependency graph:
    {v
    subject-rules ──┬────────────────┐
    ibm-clique ─────┼─> shared-prime ┼─> openssl-fingerprint
    bit-errors      │                │
    mitm-substitution (independent)  │
    v}
    (wave 1: subject-rules, ibm-clique, bit-errors, mitm-substitution;
    wave 2: shared-prime; wave 3: openssl-fingerprint.) *)

exception Unknown_pass of string
(** A requested or depended-on pass name is not in the given list. *)

val builtin : Pass.t list
(** The six paper techniques, in canonical (merge) order. *)

val find : string -> Pass.t option
(** Look up a builtin pass by name. *)

val select : ?only:string list -> Pass.t list -> Pass.t list
(** [select ~only passes] restricts to the named passes {e closed
    over their deps} (a requested pass always gets the evidence it
    declared it needs), preserving the original order. Without
    [only], the identity.
    @raise Unknown_pass on a name not in [passes]. *)

val schedule : Pass.t list -> Pass.t list list
(** Topological waves: each wave's passes depend only on earlier
    waves, so they may run concurrently. Order within a wave follows
    the input list.
    @raise Unknown_pass on a dep not in the list.
    @raise Invalid_argument on a dependency cycle. *)

type outcome = {
  attribution : Attribution.t;  (** the merged table *)
  times : (string * float) list;
      (** per-pass wall-clock seconds, in execution order *)
  results : (string * Pass.result) list;
      (** every pass's result, in execution order: the [parent] of the
          run over the next, larger context *)
}

val run :
  ?pool:Parallel.Pool.t ->
  ?only:string list ->
  ?parent:Pass.Delta.t * (string * Pass.result) list ->
  Pass.Ctx.t ->
  Pass.t list ->
  outcome
(** Execute the (selected) passes and merge their evidence and
    artifacts into one attribution table. With a [pool] of size >= 2,
    waves with several passes run them concurrently; the merge is
    always sequential in registration order, so the table is the same
    either way.

    [parent = (delta, results)] is an earlier run's {!outcome.results}
    over a context that [ctx] extends by [delta]. A {!Pass.Delta} pass
    with a result there resumes from it; one without (not selected in
    that run, or no earlier run at all, such as after a checkpoint
    restore) runs its rule from the empty parent with
    {!Pass.Delta.everything}. {!Pass.Full} passes rerun over [ctx].
    The table equals a run without [parent]. *)
