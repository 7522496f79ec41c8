module M = Urs_linalg.Matrix
module Cx = Urs_linalg.Cx
module Cband = Urs_linalg.Cband

type t = {
  env : Environment.t;
  lambda : float;
  mu : float;
  a : M.t;
  b : M.t;
  d_a : M.t;
  c_full : M.t; (* C_j for j >= N *)
  kl : int; (* sub- and super-diagonal bandwidth of A's nonzeros *)
  ku : int;
  q1_band : float array; (* Q1 entry (i, j) at i(kl+ku+1) + j − i + kl *)
}

(* The modes are ordered by operative count and every environment move
   changes that count by at most one, so A is block tridiagonal; its
   bandwidth is measured here rather than assumed. *)
let bandwidth a =
  let s = a.M.rows in
  let kl = ref 0 and ku = ref 0 in
  for i = 0 to s - 1 do
    for j = 0 to s - 1 do
      if a.M.data.((i * s) + j) <> 0.0 then begin
        kl := max !kl (i - j);
        ku := max !ku (j - i)
      end
    done
  done;
  (!kl, !ku)

let create ~env ~lambda ~mu =
  if lambda <= 0.0 || mu <= 0.0 then
    invalid_arg "Qbd.create: lambda and mu must be positive";
  let s = Environment.num_modes env in
  let a = Environment.transition_matrix env in
  let b = M.scalar s lambda in
  let d_a = M.diagonal (M.row_sums a) in
  let n = Environment.servers env in
  let c_full =
    M.init s s (fun i j ->
        if i = j then
          float_of_int (min (Environment.operative_servers env i) n) *. mu
        else 0.0)
  in
  let kl, ku = bandwidth a in
  let w = kl + ku + 1 in
  let q1_band = Array.make (s * w) 0.0 in
  for i = 0 to s - 1 do
    for j = max 0 (i - kl) to min (s - 1) (i + ku) do
      (* transition_block's ((A − D^A) − B) − C, entry by entry *)
      let k = (i * s) + j in
      q1_band.((i * w) + j - i + kl) <-
        a.M.data.(k) -. d_a.M.data.(k) -. b.M.data.(k) -. c_full.M.data.(k)
    done
  done;
  { env; lambda; mu; a; b; d_a; c_full; kl; ku; q1_band }

let env t = t.env

let lambda t = t.lambda

let mu t = t.mu

let s t = Environment.num_modes t.env

let a t = M.copy t.a

let b t = M.copy t.b

let d_a t = M.copy t.d_a

let c t j =
  if j < 0 then invalid_arg "Qbd.c: negative level";
  if j >= Environment.servers t.env then M.copy t.c_full
  else
    M.init (s t) (s t) (fun i k ->
        if i = k then
          float_of_int (min (Environment.operative_servers t.env i) j) *. t.mu
        else 0.0)

let c_diag t j =
  if j < 0 then invalid_arg "Qbd.c_diag: negative level";
  Array.init (s t) (fun i ->
      float_of_int
        (min (Environment.operative_servers t.env i)
           (min j (Environment.servers t.env)))
      *. t.mu)

let transition_block t j = M.sub (M.sub (M.sub t.a t.d_a) t.b) (c t j)

let q0 t = b t

let q1 t = transition_block t (Environment.servers t.env)

let q2 t = M.copy t.c_full

let char_poly_at t z =
  Urs_linalg.Companion.evaluate ~q0:(q0 t) ~q1:(q1 t) ~q2:(q2 t) z

let bandwidths t = (t.kl, t.ku)

(* Companion.evaluate's expression q0 + (q1·z + q2·z²) written out on
   the real and imaginary parts, so the band holds bit-identical values
   to the dense Q(z) without boxing a complex per entry *)
let char_poly_band t z =
  let sm = s t and w = t.kl + t.ku + 1 in
  let zr = Cx.re z and zi = Cx.im z in
  let z2 = Cx.mul z z in
  let z2r = Cx.re z2 and z2i = Cx.im z2 in
  let band = Cband.create ~n:sm ~kl:t.kl ~ku:t.ku in
  for i = 0 to sm - 1 do
    for j = max 0 (i - t.kl) to min (sm - 1) (i + t.ku) do
      let k = (i * sm) + j in
      let q0 = t.b.M.data.(k) and q2 = t.c_full.M.data.(k) in
      let q1 = t.q1_band.((i * w) + j - i + t.kl) in
      Cband.set band i j
        (q0 +. ((q1 *. zr) +. (q2 *. z2r)))
        (0.0 +. ((q1 *. zi) +. (q2 *. z2i)))
    done
  done;
  band

let left_null_vector t z = Cband.left_null_vector (char_poly_band t z)

let det_q_scaled t z =
  let log_det, phase = Cband.log_abs_det (char_poly_band t (Cx.of_float z)) in
  (* Q(z) is real, so the phase is exactly ±1 (0 when singular) *)
  let sign = Cx.re phase in
  if sign = 0.0 then 0.0 else sign *. exp (log_det /. float_of_int (s t))

let eigenpair_residual t z u =
  let norm_u = Urs_linalg.Cvec.norm_inf u in
  if norm_u = 0.0 then infinity
  else
    Urs_linalg.Cvec.norm_inf (Cband.vec_mul u (char_poly_band t z)) /. norm_u

let generator_residual t vs j =
  match vs with
  | [| v_prev; v_j; v_next |] ->
      let lhs = M.vec_mul v_prev t.b in
      let mid = M.vec_mul v_j (transition_block t j) in
      let nxt = M.vec_mul v_next (c t (j + 1)) in
      Urs_linalg.Vec.norm_inf
        (Urs_linalg.Vec.add lhs (Urs_linalg.Vec.add mid nxt))
  | _ -> invalid_arg "Qbd.generator_residual: expected three vectors"
