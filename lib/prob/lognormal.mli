(** The lognormal distribution ([exp] of a normal); another heavy-tailed
    lifetime model used in robustness experiments. *)

type t

val create : mu:float -> sigma:float -> t
(** Location [mu] and positive scale [sigma] of the underlying normal. *)

val of_mean_scv : mean:float -> scv:float -> t
(** Lognormal with the given positive mean and squared coefficient of
    variation. *)

val mu : t -> float
val sigma : t -> float
val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** [exp(k·mu + k²sigma²/2)]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float
val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
