(** The library's one deterministic, splittable pseudo-random number
    generator: simulation, log generation, bootstrap resampling and
    load schedules all draw from it, independent of the OCaml stdlib
    [Random] state, so every seeded run is reproducible across runs and
    machines.

    The state is one mutable native [int], stepped by a 63-bit
    linear-congruential recurrence and tempered with a splitmix-style
    xorshift-multiply output permutation (PCG construction). Every draw
    is branch-light straight-line integer/float code that allocates
    nothing. A child stream is [create (split_seed g)]. *)

type t

val create : int -> t
(** [create seed] makes a generator from an integer seed. Equal seeds
    give equal streams. *)

val copy : t -> t
(** Duplicate the current state. *)

val split_seed : t -> int
(** A nonnegative 62-bit seed drawn from the stream, suitable for
    [create]; consecutive calls yield statistically independent child
    streams ([create] mixes the full-width parent draw, so children
    start at unrelated points of the generator's cycle). *)

val bits : t -> int
(** Next raw value, uniform over nonnegative 62-bit ints. *)

val float : t -> float
(** Uniform in [[0, 1)], 53-bit resolution. *)

val float_pos : t -> float
(** Uniform in [(0, 1]]; never returns 0, safe for [log]. *)

val uniform : t -> float -> float -> float
(** [uniform g lo hi] is uniform in [[lo, hi)]. *)

val int : t -> int -> int
(** [int g bound] is uniform in [[0, bound)]; [bound > 0]. Modulo bias
    is negligible for [bound] far below 2^62. *)

val exponential : t -> float -> float
(** [exponential g rate] samples Exp(rate). The rate is not checked:
    callers pass [rate > 0]. *)

val normal : t -> float
(** Standard normal via Box–Muller. *)
