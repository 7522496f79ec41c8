(** Complex band matrices and their LU factorization with partial
    pivoting.

    A band matrix of order [n] with [kl] sub-diagonals and [ku]
    super-diagonals is stored as flat real/imaginary float arrays in
    the LAPACK [gbtrf] layout: row [i] holds columns [i−kl … i+kl+ku],
    the extra [kl] columns making room for the fill-in that row swaps
    bring into [U]. Factoring costs [O(n·kl·(kl+ku))] instead of the
    dense [O(n³)], and pivots exactly as {!Clu} does (rows below the
    band hold zeros in the pivot column), so the two agree up to
    rounding in the order of the substitutions. *)

type t

exception Singular
(** The same exception as {!Clu.Singular}. *)

val create : n:int -> kl:int -> ku:int -> t
(** The zero [n×n] band matrix. Bandwidths above [n−1] are clamped. *)

val set : t -> int -> int -> float -> float -> unit
(** [set a i j re im] sets entry [(i, j)] to [re + i·im]; raises
    [Invalid_argument] unless [i−kl <= j <= i+ku]. *)

val vec_mul : Cvec.t -> t -> Cvec.t
(** Row-vector product [x a] in [O(n·(kl+ku))], summed in the same
    order as {!Cmatrix.vec_mul}. *)

type factor

val factor_regularized : t -> factor * bool
(** Factor a copy of [a], replacing exactly-zero pivots by the same
    tiny multiple of the largest entry that {!Clu.factor_regularized}
    uses; the boolean reports whether any pivot was patched. *)

val solve_transposed : factor -> Cvec.t -> Cvec.t
(** [aᵀ x = b]. Raises {!Singular} if a pivot underflows. *)

val left_null_vector : t -> Cvec.t
(** Unit-norm [u] with [u a ≈ 0]: {!Clu.inverse_iteration} on the
    regularized factorization, as {!Clu.left_null_vector} does densely. *)

val log_abs_det : t -> float * Cx.t
(** [(log |det a|, det a / |det a|)]. The phase is exactly [±1] for a
    real matrix; an exactly singular matrix gives
    [(neg_infinity, Cx.zero)]. *)
