module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module CM = Urs_linalg.Cmatrix
module CV = Urs_linalg.Cvec
module Cx = Urs_linalg.Cx
module Cband = Urs_linalg.Cband
module Lu = Urs_linalg.Lu
module Clu = Urs_linalg.Clu
module Json = Urs_obs.Json

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

let ledger_params t =
  [
    ("servers", Json.Int (Environment.servers t.env));
    ("modes", Json.Int (s t));
    ("lambda", Json.Float t.lambda);
    ("mu", Json.Float t.mu);
  ]

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

(* ---- the boundary levels 0..N, shared by the exact solvers ---- *)

let m_lu =
  Urs_obs.Metrics.counter
    ~help:
      "Real LU factorizations during boundary elimination (spectral and \
       matrix-geometric solves)"
    "urs_spectral_lu_factorizations_total"

type boundary = { null : CV.t; levels : CV.t array; condition : float }

exception Boundary_failure of string

(* Φ0 and Φ1 are (re, im) pairs of real matrices: every other block of
   the elimination is real (Bᵀ = λI and C_j is diagonal), so the
   factorizations stay in real arithmetic *)
let eliminate_boundary t ~phi0:(phi0_re, phi0_im) ~phi1:(phi1_re, phi1_im) =
  let n_servers = Environment.servers t.env in
  let s = s t in
  let lambda = t.lambda in
  let worst_cond = ref 1.0 in
  let factor m =
    Urs_obs.Metrics.inc m_lu;
    match Lu.factor m with
    | Ok f ->
        worst_cond := Float.max !worst_cond (Lu.pivot_condition f);
        f
    | Error `Singular -> raise (Boundary_failure "singular boundary block")
  in
  let tt j = M.transpose (transition_block t j) in
  try
    (* forward elimination of the block-tridiagonal boundary system:
       S_j = −(λ S_{j−1} + T_jᵀ)⁻¹ C_{j+1}ᵀ, all real; [block j] is the
       matrix factored at level j *)
    let ss = Array.make (max 0 (n_servers - 1)) (M.create 0 0) in
    let block j =
      if j = 0 then tt 0 else M.add (M.scale lambda ss.(j - 1)) (tt j)
    in
    for j = 0 to n_servers - 2 do
      let f = factor (block j) in
      ss.(j) <-
        Lu.solve_matrix f (M.diagonal (V.scale (-1.0) (c_diag t (j + 1))))
    done;
    (* level N-1 equation: x_{N-1} = W γᵀ with
       W = −M_last⁻¹ (C Φ0) (C diagonal) *)
    let f_last = factor (block (n_servers - 1)) in
    let c_full_diag = c_diag t n_servers in
    let scale_rows_neg d m = M.init s s (fun i j -> -.d.(i) *. M.get m i j) in
    let w_re = Lu.solve_matrix f_last (scale_rows_neg c_full_diag phi0_re) in
    let w_im = Lu.solve_matrix f_last (scale_rows_neg c_full_diag phi0_im) in
    (* level N equation: [λW + T_Nᵀ Φ0 + C Φ1] γᵀ = 0 *)
    let t_full = tt n_servers in
    let scale_rows d m = M.init s s (fun i j -> d.(i) *. M.get m i j) in
    let mg_re =
      M.add (M.scale lambda w_re)
        (M.add (M.mul t_full phi0_re) (scale_rows c_full_diag phi1_re))
    in
    let mg_im =
      M.add (M.scale lambda w_im)
        (M.add (M.mul t_full phi0_im) (scale_rows c_full_diag phi1_im))
    in
    let m_gamma =
      CM.init s s (fun i j -> Cx.make (M.get mg_re i j) (M.get mg_im i j))
    in
    let g = Clu.null_vector m_gamma in
    (* back substitution: x_{N-1} = W g, then x_j = S_j x_{j+1} *)
    let g_re = CV.real_part g and g_im = CV.imag_part g in
    let complex_apply re im vr vi =
      (* (re + i·im)(vr + i·vi) *)
      let a = M.mul_vec re vr and b = M.mul_vec im vi in
      let c = M.mul_vec re vi and d = M.mul_vec im vr in
      Array.init s (fun i -> Cx.make (a.(i) -. b.(i)) (c.(i) +. d.(i)))
    in
    let real_apply m v =
      let vr = M.mul_vec m (CV.real_part v) in
      let vi = M.mul_vec m (CV.imag_part v) in
      Array.init s (fun i -> Cx.make vr.(i) vi.(i))
    in
    let xs = Array.make n_servers (CV.create s) in
    xs.(n_servers - 1) <- complex_apply w_re w_im g_re g_im;
    for j = n_servers - 2 downto 0 do
      xs.(j) <- real_apply ss.(j) xs.(j + 1)
    done;
    Ok { null = g; levels = xs; condition = !worst_cond }
  with
  | Boundary_failure msg -> Error msg
  | Clu.Singular -> Error "singular block during elimination"

let real_probabilities xs =
  let fail fmt = Printf.ksprintf (fun msg -> raise (Boundary_failure msg)) fmt in
  try
    let ps =
      Array.map
        (fun x ->
          let imag = V.norm_inf (CV.imag_part x) in
          if imag > 1e-6 then
            fail "boundary vector has imaginary residue %.2e" imag;
          CV.real_part x)
        xs
    in
    (* probabilities must be (essentially) nonnegative *)
    Array.iter
      (Array.iter (fun p -> if p < -1e-8 then fail "negative probability %.3e" p))
      ps;
    Ok ps
  with Boundary_failure msg -> Error msg

let normalize_boundary b ~tail_mass =
  let total =
    Array.fold_left (fun acc x -> Cx.add acc (CV.sum x)) tail_mass b.levels
  in
  if Cx.modulus total < 1e-300 then Error "normalization constant vanished"
  else
    let inv_total = Cx.inv total in
    let gamma = Array.map (fun gk -> Cx.mul gk inv_total) b.null in
    Result.map
      (fun levels -> (gamma, levels))
      (real_probabilities (Array.map (CV.scale inv_total) b.levels))
