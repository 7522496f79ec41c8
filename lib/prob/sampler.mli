(** The library's one sampling code for {!Distribution.t} values, used
    by the simulator and the breakdown-log generator alike.

    {!compile} digests a distribution once into a flat representation
    (rates, cumulative weight tables, phase-type jump tables); {!sample}
    then draws from it with a single shallow match and {!Pcg}
    arithmetic. The exponential, deterministic, uniform, Weibull and
    Erlang paths allocate nothing per draw. Per family: exponential,
    Weibull and hyperexponential phases by inversion; Erlang as a
    product of uniforms; lognormal through a Box–Muller normal;
    phase-type by running the absorbing chain (an initial defect mass
    yields 0). *)

type t

val compile : Distribution.t -> t
(** Precompute everything [sample] needs. Call once per distribution
    per replication setup, never inside the event loop. *)

val sample : t -> Pcg.t -> float
(** Draw one value. *)
