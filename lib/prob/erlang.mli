(** The Erlang-k distribution (sum of [k] i.i.d. exponentials). Its
    squared coefficient of variation is [1/k <= 1]; used as a
    low-variability contrast case in the experiments. *)

type t

val create : k:int -> rate:float -> t
(** [k >= 1] stages, each with the given positive rate. *)

val stages : t -> int
val rate : t -> float
val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** k-th raw moment: [(k+j-1)!/(k-1)! / rate^j] for [j >= 1]. *)

val pdf : t -> float -> float

val cdf : t -> float -> float
(** Via the regularized incomplete gamma function. *)

val quantile : t -> float -> float
val pp : Format.formatter -> t -> unit
