(** The exponential distribution with a given rate. *)

type t

val create : float -> t
(** [create rate]; requires [rate > 0]. *)

val rate : t -> float
val mean : t -> float
val variance : t -> float

val scv : t -> float
(** Squared coefficient of variation; always [1.]. *)

val moment : t -> int -> float
(** [moment d k] is the k-th raw moment [k! / rate^k]; [k >= 1]. *)

val pdf : t -> float -> float
val cdf : t -> float -> float

val quantile : t -> float -> float
(** Inverse CDF on [(0, 1)]. *)

val pp : Format.formatter -> t -> unit
