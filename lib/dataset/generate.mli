(** Synthetic breakdown-log generator — the stand-in for the proprietary
    Sun Microsystems data set (see DESIGN.md, substitutions).

    Each server is an alternating renewal process: operative periods and
    outage durations are drawn from ground-truth distributions; each
    breakdown produces one log row whose [time_between_events] is the
    outage plus the following operative period, exactly the structure of
    the paper's Figure 2. A configurable fraction of rows is corrupted
    into anomalies ([time_between_events < outage_duration]) to exercise
    the cleaning step. *)

type config = {
  rows : int;  (** Total rows to emit (the real set had 140,000). *)
  servers : int;  (** Number of distinct servers in the log. *)
  operative : Urs_prob.Distribution.t;  (** Ground-truth operative law. *)
  inoperative : Urs_prob.Distribution.t;  (** Ground-truth outage law. *)
  anomaly_fraction : float;  (** Fraction of corrupted rows (~0.04). *)
  seed : int;
}

val default : config
(** 140,000 rows over 200 servers, ground truth equal to the paper's
    fitted distributions (operative H2(0.7246@0.1663, 0.2754@0.0091);
    inoperative H2(0.9303@25.0043, 0.0697@1.6346)), 3.5% anomalies,
    seed 2006. *)

val generate : config -> Event.t array
(** Deterministic in [config.seed]: every draw comes from one
    {!Urs_prob.Pcg} stream keyed by it, through the laws compiled once
    with {!Urs_prob.Sampler}, the same sampling code the simulator
    uses. *)
