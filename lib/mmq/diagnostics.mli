(** Numerical-health diagnostics for the solvers.

    Each probe (balance residual, per-eigenpair residual, probability
    mass conservation, boundary-system conditioning, stability margin,
    simulation confidence-interval width, cross-method agreement) is
    scored against two thresholds and folded into a severity verdict.
    The verdicts back the [urs doctor] CLI subcommand and the
    [/healthz] endpoint of [urs serve]. *)

type verdict =
  | Ok  (** All probes within tolerance. *)
  | Degraded of string list
      (** Result usable but some probe is outside its comfort zone;
          the strings describe which. *)
  | Suspect of string list
      (** At least one probe indicates the result should not be
          trusted. *)

val severity : verdict -> int
(** [0] for [Ok], [1] for [Degraded], [2] for [Suspect]. *)

val verdict_label : verdict -> string
(** ["ok"], ["degraded"] or ["suspect"]. *)

val issues : verdict -> string list

val combine : verdict list -> verdict
(** Worst severity wins; issue lists are concatenated. *)

val pp_verdict : Format.formatter -> verdict -> unit

(** {1 Thresholds} *)

type thresholds = {
  residual_degraded : float;
      (** Balance/eigenpair residual or mass defect above this degrades
          the verdict (default [1e-10]). *)
  residual_suspect : float;  (** ... and above this makes it suspect. *)
  condition_degraded : float;
      (** Boundary LU pivot-ratio condition estimate (default [1e10]). *)
  condition_suspect : float;
  margin_degraded : float;
      (** Positive stability margins below this degrade (default
          [1e-3]): the spectral solve goes ill-conditioned as
          utilization approaches 1. *)
  ci_rel_degraded : float;
      (** Simulation CI half-width relative to the estimate. *)
  ci_rel_suspect : float;
  delta_exact_degraded : float;
      (** Relative disagreement between two exact methods. *)
  delta_exact_suspect : float;
  sim_band_half_widths : float;
      (** Exact-vs-simulation acceptance band, in CI half-widths
          (default [3.]). *)
  sim_band_rel_floor : float;
      (** Floor of that band as a fraction of the exact value (default
          [0.05]) — the CI itself is noisy at few replications. *)
  sim_suspect_factor : float;
      (** Deltas beyond this multiple of the band are suspect rather
          than degraded (default [3.]). *)
  warmup_slack_frac : float;
      (** A Welch-measured warm-up may exceed the configured warmup by
          this fraction of the run horizon before {!check_warmup}
          degrades (default [0.05]). *)
  transient_rel_degraded : float;
      (** Measured-vs-{!Transient} trajectory disagreement,
          relative to the expectation floored at one job (default
          [0.35] — replication averages over a handful of runs are
          noisy, and the simulator's initial phase mix differs slightly
          from the most-likely-mode start of the uniformization). *)
  transient_rel_suspect : float;  (** ... and above this, suspect. *)
  memory_top_heap_words : float;
      (** {!check_memory}: top-heap words above this budget are suspect
          (default [2.5e8] — far above the few tens of megawords the
          N=5 paper solve needs, so only a fundamental allocation
          regression trips it). *)
  memory_gc_pause_seconds : float;
      (** {!check_memory}: a major-GC pause longer than this inside the
          probed solve is suspect (default [1.]). *)
  conv_cap_ratio_suspect : float;
      (** {!check_convergence}: iterations-used over the iteration cap
          at or above this ratio is suspect (default [0.8] — the next
          harder model will stall outright). *)
  conv_stall_window : int;
      (** {!check_convergence}: number of trailing post-deflation
          samples over which a residual that fails to improve at all
          counts as stagnation (default [12]). *)
  conv_rate_degraded : float;
      (** {!check_convergence}: a per-iteration residual contraction
          rate above this degrades (default [0.995], i.e. more than
          ~5000 iterations per decade — the paper models' linearly
          convergent R fixed point at [z_s ≈ 0.96] passes). *)
}

val default_thresholds : thresholds

(** {1 Spectral solves} *)

type spectral_report = {
  balance_residual : float;  (** {!Spectral.residual}. *)
  eigen_residual : float;  (** {!Spectral.max_eigen_residual}. *)
  mass_defect : float;  (** {!Spectral.mass_defect}. *)
  boundary_condition : float;  (** {!Spectral.boundary_condition}. *)
  dominant_z : float;
  stability_margin : float;
  verdict : verdict;
}

val check_spectral : ?thresholds:thresholds -> Spectral.t -> spectral_report
(** Run every a-posteriori probe on a solved model. Pure: does not
    touch gauges (use {!observe_spectral}). *)

val pp_spectral_report : Format.formatter -> spectral_report -> unit

(** {1 Cross-checks} *)

val relative_delta : float -> float -> float
(** [|a − b| / max(|a|, |b|)]; [0.] when both are zero. *)

val check_exact_pair :
  ?thresholds:thresholds -> label:string -> float -> float -> float * verdict
(** Agreement between two exact methods (e.g. spectral vs
    matrix-geometric mean queue length). Returns the relative delta
    and its verdict. *)

val check_simulation_agreement :
  ?thresholds:thresholds ->
  label:string ->
  exact:float ->
  estimate:float ->
  half_width:float ->
  unit ->
  float * verdict
(** Does the simulation estimate sit inside a (generously widened)
    confidence band around the exact value? The band is
    [sim_band_half_widths] CI half-widths, floored at
    [sim_band_rel_floor] of the exact value; [sim_suspect_factor]
    times the band escalates to suspect. Returns the relative delta
    and its verdict. *)

val check_warmup :
  ?thresholds:thresholds ->
  label:string ->
  warmup:float ->
  horizon:float ->
  float option ->
  verdict
(** Does the simulation's measurement window clear the initial
    transient? The argument is the Welch-estimated truncation time
    ({!Urs_stats.Welch.truncation_index} mapped back to simulated time);
    [None] means the trajectory never settled within [horizon].
    Degraded when the truncation time exceeds [warmup] by more than
    [warmup_slack_frac] of the horizon, or on [None]. *)

val check_memory :
  ?thresholds:thresholds ->
  label:string ->
  top_heap_words:float ->
  worst_pause:float option ->
  unit ->
  verdict
(** Memory health of a probed solve ([urs doctor]'s [memory] stage):
    suspect when [top_heap_words] exceeds [memory_top_heap_words], or
    when [worst_pause] (the longest major-GC pause overlapping the
    solve span, from the Runtime_events consumer; [None] when no pause
    was observed or the runtime lacks eventring support) exceeds
    [memory_gc_pause_seconds]. *)

val check_transient_trajectory :
  ?thresholds:thresholds ->
  label:string ->
  (float * float * float) list ->
  float * verdict
(** Cross-check a measured mean-jobs trajectory against the
    uniformization transient solution: each element is
    [(time, measured, expected)]. Returns the worst relative
    disagreement (relative to the expectation, floored at one job) and
    its verdict, graded against [transient_rel_degraded] / [_suspect].
    Degraded when called with no points. *)

val check_convergence :
  ?thresholds:thresholds ->
  label:string ->
  Urs_obs.Convergence.trace ->
  float * verdict
(** Grade one finished iteration trace ([urs doctor]'s [convergence]
    stage). Suspect when the trace did not converge, when it burned
    [conv_cap_ratio_suspect] of its iteration cap, when deflation is
    non-monotone (the active/remaining figure grew), or when the
    residual stagnated over the last [conv_stall_window] post-deflation
    samples; degraded on slow linear contraction (geometric-mean
    per-iteration rate above [conv_rate_degraded]). Returns the
    cap-utilization ratio (iterations when the trace carries no cap)
    and the verdict. *)

val check_ci :
  ?thresholds:thresholds ->
  label:string ->
  estimate:float ->
  half_width:float ->
  unit ->
  float * verdict
(** Is the simulation's own confidence interval tight enough relative
    to its estimate? Returns the relative half-width and its verdict. *)

(** {1 Gauges}

    Verdicts are exported as [urs_health_status{component="..."}]
    (0 ok / 1 degraded / 2 suspect) and probe values as
    [urs_health_value{check="..."}], both with last-write semantics. *)

val observe_verdict : component:string -> verdict -> unit
val observe_spectral : spectral_report -> unit
