(** The degenerate (constant) distribution: all mass at one point. Its
    squared coefficient of variation is 0 — the leftmost point of
    Figure 6, which the paper obtains by simulation because the
    analytical model requires phase-type periods. *)

type t

val create : float -> t
(** [create v]; requires [v >= 0]. *)

val value : t -> float
val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** [vᵏ]. *)

val cdf : t -> float -> float
(** Step function at the value. *)

val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
