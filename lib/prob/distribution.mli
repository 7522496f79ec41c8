(** Unified view of the nonnegative distributions used for operative and
    inoperative periods and for service/interarrival times. The
    simulator accepts any of these; the analytical solver accepts the
    phase-type subset (exponential and hyperexponential — see
    {!as_hyperexponential}). *)

type t =
  | Exponential of Exponential.t
  | Hyperexponential of Hyperexponential.t
  | Erlang of Erlang.t
  | Deterministic of Deterministic.t
  | Uniform of Uniform_d.t
  | Weibull of Weibull.t
  | Lognormal of Lognormal.t
  | Phase_type of Phase_type.t

val exponential : rate:float -> t
val hyperexponential : weights:float array -> rates:float array -> t
val h2 : w1:float -> r1:float -> r2:float -> t
(** Two-phase hyperexponential with weights [(w1, 1-w1)]. *)

val erlang : k:int -> rate:float -> t
val deterministic : float -> t
val uniform : lo:float -> hi:float -> t
val weibull : shape:float -> scale:float -> t
val lognormal : mu:float -> sigma:float -> t

val phase_type : alpha:float array -> t_matrix:Urs_linalg.Matrix.t -> t
(** General phase-type distribution (see {!Phase_type}). *)

val mean : t -> float
val variance : t -> float

val scv : t -> float
(** Squared coefficient of variation. *)

val moment : t -> int -> float
(** k-th raw moment, [k >= 1]. *)

val cdf : t -> float -> float

val pdf : t -> float -> float
(** Density; for {!Deterministic} this returns [0.] everywhere (the
    distribution has no density). *)

val quantile : t -> float -> float

val as_hyperexponential : t -> Hyperexponential.t option
(** The hyperexponential view used by the analytical solver:
    exponentials are 1-phase hyperexponentials; a {!Phase_type} with a
    diagonal sub-generator and no defect is a hyperexponential too;
    other families return [None]. *)

val as_phase_type : t -> Phase_type.t option
(** The phase-type view used by the generalized analytical solver:
    exponential, hyperexponential, Erlang and {!Phase_type} values
    convert; deterministic, uniform, Weibull and lognormal do not (use
    the simulator for those). *)

val pp : Format.formatter -> t -> unit
