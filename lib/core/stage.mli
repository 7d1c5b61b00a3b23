(** Tiny stage-graph runner for the measurement pipeline.

    {!Pipeline.of_scans} is a linear chain of named stages
    (scan → intern → batchgcd → fingerprint → index → attribution); this
    module times each stage, reports progress, and — for the one
    expensive stage, the batch GCD — serializes the stage artifact to a
    checkpoint directory so a rerun can restore instead of
    recompute.

    Checkpoints are content-addressed: each file starts with a caller
    supplied key (a digest of the stage's inputs); {!run_cached} only
    restores when the stored key matches, so a stale checkpoint from a
    different corpus silently falls back to recomputation. Writes go
    through a temp file + rename, so a crash mid-write never leaves a
    truncated checkpoint behind. *)

type timing = {
  stage : string;
  seconds : float;
  restored : bool;  (** artifact came from a checkpoint, not computed *)
}

type ctx

val ctx : ?progress:(string -> unit) -> ?dir:string -> unit -> ctx
(** [dir] is the checkpoint directory (created on first write); without
    it {!run_cached} degrades to {!run}. *)

val run : ctx -> string -> (unit -> 'a) -> 'a
(** [run ctx name f] executes [f], records its wall-clock timing under
    [name] and emits a progress line. *)

val run_cached :
  ctx ->
  string ->
  key:string Lazy.t ->
  save:(out_channel -> 'a -> unit) ->
  load:(in_channel -> 'a) ->
  (unit -> 'a) ->
  'a
(** Like {!run}, but first tries [dir/name.ckpt]: when the file exists
    and its stored key equals [key], the artifact is restored with
    [load] (timing recorded with [restored = true]). Otherwise [f]
    runs and the artifact is written atomically with [save]
    ({!Corpus.Io.write_atomic}). [key] is forced only when the context
    has a checkpoint directory, so a digest of a whole corpus costs
    nothing on a run without one. [load] failures ({!Corpus.Io.Corrupt},
    truncation) and bytes left after the record count as a miss, not
    an error. *)

val note : ctx -> string -> seconds:float -> unit
(** Record an externally-timed step (e.g. one attribution pass whose
    wall clock the scheduler already measured) in the timing table. *)

val timings : ctx -> timing list
(** Stages in execution order. *)
