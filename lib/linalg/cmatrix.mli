(** Dense complex matrices in row-major order. *)

type t = { rows : int; cols : int; data : Cx.t array }

val create : int -> int -> t
val init : int -> int -> (int -> int -> Cx.t) -> t
val identity : int -> t

val of_real : Matrix.t -> t
(** Embed a real matrix. *)

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit

val conj_transpose : t -> t
(** Hermitian transpose. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t

val mul_vec : t -> Cvec.t -> Cvec.t
(** Column-vector product [m x]. *)

val vec_mul : Cvec.t -> t -> Cvec.t
(** Row-vector product [x m]. *)

val max_abs : t -> float
(** Largest entry modulus. *)

val approx_equal : ?tol:float -> t -> t -> bool
