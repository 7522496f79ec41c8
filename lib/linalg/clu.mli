(** LU factorization with partial pivoting for dense complex matrices.

    Mirrors {!Lu} for [Cmatrix.t]; used to compute determinant values of
    the characteristic matrix polynomial at complex points and for
    inverse iteration when extracting (left) eigenvectors. *)

type t

exception Singular

val factor : Cmatrix.t -> (t, [ `Singular ]) result
(** Factor a square complex matrix; [Error `Singular] when a pivot is
    exactly zero. *)

val factor_regularized : Cmatrix.t -> t * bool
(** Like {!factor} but replaces exactly-zero pivots with a tiny
    multiple of the matrix norm, so that factorization always succeeds.
    The boolean reports whether any pivot was patched. Intended for
    inverse iteration on (near-)singular matrices. *)

val solve : t -> Cvec.t -> Cvec.t
val solve_transposed : t -> Cvec.t -> Cvec.t

val det : Cmatrix.t -> Cx.t
(** Determinant; [0] for singular matrices. *)

val solve_system : Cmatrix.t -> Cvec.t -> (Cvec.t, [ `Singular ]) result

val null_vector : Cmatrix.t -> Cvec.t
(** [null_vector a] returns an (approximate) unit-norm right null vector
    of a (near-)singular square matrix, computed by inverse iteration on
    a regularized factorization. The result is phase-normalized as in
    {!Cvec.normalize}. *)

val left_null_vector : Cmatrix.t -> Cvec.t
(** Left null vector: [u] with [u a ≈ 0], unit norm. *)

val inverse_iteration : (Cvec.t -> Cvec.t) -> int -> Cvec.t
(** [inverse_iteration solve n] runs four steps of inverse iteration
    [x ← solve x / ‖solve x‖] from a fixed deterministic start vector of
    dimension [n], then phase-normalizes as in {!Cvec.normalize}. The
    null-vector functions here and {!Cband.left_null_vector} share it,
    so a dense and a band factorization of the same matrix give the
    same vector up to rounding. *)
