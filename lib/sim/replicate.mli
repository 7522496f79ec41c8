(** Independent replications of the simulator with Student-t confidence
    intervals across replications. *)

type interval = { estimate : float; half_width : float }

type summary = {
  mean_jobs : interval;
  mean_response : interval;
  mean_operative : interval;
  replications : int;
  confidence : float;
}

val progress_task : string
(** Name of the {!Urs_obs.Progress} task ticked per replication
    (["sim:replications"]). *)

val run :
  ?seed:int ->
  ?replications:int ->
  ?confidence:float ->
  ?warmup:float ->
  ?pool:Urs_exec.Pool.t ->
  ?timelines:bool ->
  ?timeline_registry:Urs_obs.Timeline.t ->
  ?timeline_capacity:int ->
  duration:float ->
  Server_farm.config ->
  summary
(** Defaults: [replications = 10], [confidence = 0.95], [seed = 1].
    Replication [i] uses an independent split stream
    ({!Urs_prob.Pcg.split_seed}) derived from the master seed; all
    per-replication seeds are drawn up front, so running on a [pool]
    ([--jobs N]) produces a summary bit-identical to the sequential
    run for the same seed.

    Unless [timelines] is [false], each replication attaches a {!Probe}
    recording its full trajectory (warmup included) into
    [timeline_registry] (default {!Urs_obs.Timeline.default}) under
    labels [rep=<i>], with the owning domain id in the series meta. All
    replications share one bucket layout (horizon = warmup + duration),
    so their trajectories average bucket-by-bucket; the contents are
    identical at any pool width. Re-running replaces the previous run's
    series (last-run-wins on the live endpoint). Other arguments are
    passed to {!Server_farm.run}. *)

val pp_summary : Format.formatter -> summary -> unit
