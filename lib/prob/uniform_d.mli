(** The continuous uniform distribution on [[lo, hi]]. A second
    low-variability contrast distribution for the simulator. *)

type t

val create : lo:float -> hi:float -> t
(** Requires [0 <= lo < hi]. *)

val lo : t -> float
val hi : t -> float
val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** [(hi^{k+1} − lo^{k+1}) / ((k+1)(hi − lo))]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float
val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
