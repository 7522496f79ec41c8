(** General (continuous) phase-type distributions.

    A PH distribution is the absorption time of a Markov chain with [k]
    transient phases: initial distribution [alpha] (row vector, may have
    a defect — mass that absorbs immediately) and sub-generator [T]
    (k x k, negative diagonal, nonnegative off-diagonal, row sums
    ≤ 0). Hyperexponential and Erlang distributions are special cases;
    this module generalizes them, which lets the simulator model
    operative/inoperative periods beyond the paper's assumptions (a
    natural extension the paper hints at in §5).

    Moments: [Mⱼ = j! · alpha (−T)⁻ʲ 1]. The CDF is evaluated by
    uniformization (a Poisson mixture of powers of the uniformized
    transition matrix), which is numerically robust. *)

type t

val create : alpha:float array -> t_matrix:Urs_linalg.Matrix.t -> t
(** Validated constructor. Raises [Invalid_argument] when [alpha] has
    negative entries or mass > 1, when [T] is not a sub-generator, or
    when dimensions disagree. *)

val of_hyperexponential : Hyperexponential.t -> t
(** Embed an n-phase hyperexponential. *)

val of_erlang : Erlang.t -> t
(** Embed an Erlang-k distribution. *)

val phases : t -> int
val alpha : t -> float array
val t_matrix : t -> Urs_linalg.Matrix.t

val mean : t -> float
val variance : t -> float
val scv : t -> float

val moment : t -> int -> float
(** j-th raw moment; [j >= 1]. *)

val cdf : ?tol:float -> t -> float -> float
(** CDF by uniformization; [tol] bounds the truncation error
    (default [1e-12]). *)

val pdf : ?tol:float -> t -> float -> float
(** Density, same method. *)

val quantile : t -> float -> float
(** Inverse CDF by bisection. *)

val pp : Format.formatter -> t -> unit
