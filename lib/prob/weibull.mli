(** The Weibull distribution, a common alternative lifetime model; used
    in robustness experiments to check how the hyperexponential fit
    behaves on non-phase-type data. *)

type t

val create : shape:float -> scale:float -> t
(** Requires positive shape and scale. *)

val shape : t -> float
val scale : t -> float
val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** [scaleᵏ Γ(1 + k/shape)]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float
val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
