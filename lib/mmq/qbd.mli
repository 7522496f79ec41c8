(** The quasi-birth-death structure of the Markov-modulated queue
    (paper §3.1): generator blocks, balance-equation coefficients and
    the characteristic matrix polynomial.

    With [s] operational modes, the transition blocks are:
    - [A]: mode changes at fixed queue size (environment moves),
    - [B = λI]: arrivals (mode-preserving),
    - [C_j]: departures at queue size [j], the diagonal matrix with
      entries [min(operative_i, j)·µ]; [C_j = C] for [j >= N].

    The balance equations read
    [v_{j−1}B + v_j(A − D^A − B − C_j) + v_{j+1}C_{j+1} = 0] with
    [D^A = diag(row sums of A)], and for [j >= N] the characteristic
    polynomial is [Q(z) = Q0 + Q1 z + Q2 z²] with [Q0 = B],
    [Q1 = A − D^A − B − C], [Q2 = C]. *)

type t

val create : env:Environment.t -> lambda:float -> mu:float -> t
(** Precomputes all blocks. Requires positive rates. *)

val env : t -> Environment.t
val lambda : t -> float
val mu : t -> float

val s : t -> int
(** Number of operational modes. *)

val a : t -> Urs_linalg.Matrix.t
(** The mode-transition block [A]. *)

val b : t -> Urs_linalg.Matrix.t
(** The arrival block [λI]. *)

val c : t -> int -> Urs_linalg.Matrix.t
(** [c t j] is the departure block [C_j]; for [j >= servers] this is the
    level-independent [C]. [c t 0] is the zero matrix. *)

val c_diag : t -> int -> Urs_linalg.Vec.t
(** The diagonal of [C_j] ([C_j] is always diagonal: departures do not
    change the operational mode). *)

val d_a : t -> Urs_linalg.Matrix.t
(** Diagonal matrix of row sums of [A]. *)

val transition_block : t -> int -> Urs_linalg.Matrix.t
(** [transition_block t j] is [T_j = A − D^A − B − C_j], the coefficient
    of [v_j] in the level-[j] balance equation. Always nonsingular (a
    strictly row-diagonally-dominant M-matrix transpose). *)

val ledger_params : t -> (string * Urs_obs.Json.t) list
(** [servers], [modes], [lambda] and [mu]: the parameters every
    exact-solver ledger record carries. *)

val q0 : t -> Urs_linalg.Matrix.t
val q1 : t -> Urs_linalg.Matrix.t
val q2 : t -> Urs_linalg.Matrix.t

val char_poly_at : t -> Urs_linalg.Cx.t -> Urs_linalg.Cmatrix.t
(** [Q(z)] evaluated at a complex point, as a dense matrix. *)

val bandwidths : t -> int * int
(** [(kl, ku)]: the largest [i − j] and [j − i] over the nonzeros
    [A(i, j)], measured once by {!create}. [Q0] and [Q2] are diagonal,
    so this is also the band of [Q(z)]. The modes are ordered by
    operative count and each environment move changes that count by at
    most one, so [A] is block tridiagonal and the band is narrow:
    [kl = ku = N+1] for the paper's H2/Exp model, against
    [s = C(N+2, 2)]. *)

val char_poly_band : t -> Urs_linalg.Cx.t -> Urs_linalg.Cband.t
(** [Q(z)] as a band matrix with {!bandwidths}; its entries are
    bit-identical to those of {!char_poly_at}. *)

val left_null_vector : t -> Urs_linalg.Cx.t -> Urs_linalg.Cvec.t
(** A unit-norm left null vector [u] of [Q(z)] ([u·Q(z) ≈ 0]) by
    banded inverse iteration, [O(s·b²)] for bandwidth [b]. *)

val det_q_scaled : t -> float -> float
(** [det Q(z)] for real [z], rescaled as
    [sign·exp(log|det|/s)] to avoid overflow — same sign and same roots
    as the determinant, used for locating the dominant eigenvalue.
    Computed on the band, [O(s·b²)]. *)

val eigenpair_residual : t -> Urs_linalg.Cx.t -> Urs_linalg.Cvec.t -> float
(** [eigenpair_residual t z u] is [‖u·Q(z)‖∞ / ‖u‖∞] — the a-posteriori
    accuracy of a left eigenpair of the characteristic polynomial
    ([infinity] for a zero vector), by a band product in [O(s·b)].
    Near machine epsilon for a well-conditioned solve; the health
    diagnostics flag anything materially larger. *)

val generator_residual : t -> Urs_linalg.Vec.t array -> int -> float
(** [generator_residual t vs j] is the infinity-norm residual of the
    level-[j] balance equation given consecutive probability vectors
    [vs = [| v_{j−1}; v_j; v_{j+1} |]] — a diagnostic used in tests. *)

(** {1 Boundary levels}

    One block-tridiagonal elimination of levels [0..N], shared by the
    exact solvers: both write level [N+r] as [v_{N+r}ᵀ = Φ_r γᵀ] — the
    spectral method with column [k] of [Φ_r] equal to [z_k^{N+r} u_kᵀ],
    the matrix-geometric method with [Φ0 = I], [Φ1 = Rᵀ]. [B = λI] and
    diagonal [C_j] keep every LU real; only the final null vector is
    complex. *)

type boundary = {
  null : Urs_linalg.Cvec.t;  (** [γ] up to scale *)
  levels : Urs_linalg.Cvec.t array;  (** [x_0 .. x_{N−1}], same scale *)
  condition : float;  (** worst {!Urs_linalg.Lu.pivot_condition} *)
}

val eliminate_boundary :
  t ->
  phi0:Urs_linalg.Matrix.t * Urs_linalg.Matrix.t ->
  phi1:Urs_linalg.Matrix.t * Urs_linalg.Matrix.t ->
  (boundary, string) result
(** [S_j = −(λS_{j−1} + T_jᵀ)⁻¹ C_{j+1}], the level [N−1] and [N]
    equations, the final null vector and back substitution; [phi0],
    [phi1] are [(re, im)] pairs. Each LU counts toward
    [urs_spectral_lu_factorizations_total]. *)

val real_probabilities :
  Urs_linalg.Cvec.t array -> (Urs_linalg.Vec.t array, string) result
(** Real parts; [Error] on an imaginary part above [1e-6] or a
    probability below [−1e-8]. *)

val normalize_boundary :
  boundary ->
  tail_mass:Urs_linalg.Cx.t ->
  (Urs_linalg.Cx.t array * Urs_linalg.Vec.t array, string) result
(** Scale by the total mass ([tail_mass]: levels [>= N] for the
    unscaled [null]) into [γ] and, through {!real_probabilities},
    [v_0 .. v_{N−1}]. *)
