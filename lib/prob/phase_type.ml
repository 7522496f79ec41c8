module M = Urs_linalg.Matrix
module Lu = Urs_linalg.Lu

type t = {
  alpha : float array;
  t_matrix : M.t;
  exit_rates : float array; (* t = -T·1, absorption rate per phase *)
  neg_t_inv_ones : float array; (* (−T)⁻¹ 1, mean sojourn from each phase *)
}

let create ~alpha ~t_matrix =
  let k = Array.length alpha in
  if k = 0 then invalid_arg "Phase_type.create: no phases";
  if not (M.is_square t_matrix) || t_matrix.M.rows <> k then
    invalid_arg "Phase_type.create: dimension mismatch";
  let mass = Array.fold_left ( +. ) 0.0 alpha in
  Array.iter
    (fun a ->
      if a < 0.0 || not (Float.is_finite a) then
        invalid_arg "Phase_type.create: alpha must be nonnegative")
    alpha;
  if mass > 1.0 +. 1e-12 then
    invalid_arg "Phase_type.create: alpha mass exceeds 1";
  let exit_rates = Array.make k 0.0 in
  for i = 0 to k - 1 do
    let row_sum = ref 0.0 in
    for j = 0 to k - 1 do
      let v = M.get t_matrix i j in
      if i = j then begin
        if v >= 0.0 then
          invalid_arg "Phase_type.create: diagonal of T must be negative"
      end
      else if v < 0.0 then
        invalid_arg "Phase_type.create: off-diagonal of T must be nonnegative";
      row_sum := !row_sum +. v
    done;
    if !row_sum > 1e-9 then
      invalid_arg "Phase_type.create: T row sums must be <= 0";
    exit_rates.(i) <- Float.max 0.0 (-. !row_sum)
  done;
  (* (−T) x = 1 *)
  let neg_t = M.scale (-1.0) t_matrix in
  let ones = Array.make k 1.0 in
  let neg_t_inv_ones =
    match Lu.solve_system neg_t ones with
    | Ok x -> x
    | Error `Singular -> invalid_arg "Phase_type.create: T is singular"
  in
  { alpha = Array.copy alpha; t_matrix = M.copy t_matrix; exit_rates;
    neg_t_inv_ones }

let of_hyperexponential h =
  let w = Hyperexponential.weights h and r = Hyperexponential.rates h in
  let k = Array.length w in
  let t_matrix = M.init k k (fun i j -> if i = j then -.r.(i) else 0.0) in
  create ~alpha:w ~t_matrix

let of_erlang e =
  let k = Erlang.stages e and r = Erlang.rate e in
  let alpha = Array.init k (fun i -> if i = 0 then 1.0 else 0.0) in
  let t_matrix =
    M.init k k (fun i j ->
        if i = j then -.r else if j = i + 1 then r else 0.0)
  in
  create ~alpha ~t_matrix

let phases d = Array.length d.alpha

let alpha d = Array.copy d.alpha

let t_matrix d = M.copy d.t_matrix

(* Mⱼ = j! · α (−T)⁻ʲ 1, computed by repeated solves of (−T) x = prev. *)
let moment d j =
  if j < 1 then invalid_arg "Phase_type.moment: order must be >= 1";
  let k = phases d in
  let neg_t = M.scale (-1.0) d.t_matrix in
  let f = Lu.factor_exn neg_t in
  let x = ref (Array.make k 1.0) in
  let fact = ref 1.0 in
  for i = 1 to j do
    x := Lu.solve f !x;
    fact := !fact *. float_of_int i
  done;
  let acc = ref 0.0 in
  for i = 0 to k - 1 do
    acc := !acc +. (d.alpha.(i) *. !x.(i))
  done;
  !fact *. !acc

let mean d =
  let acc = ref 0.0 in
  for i = 0 to phases d - 1 do
    acc := !acc +. (d.alpha.(i) *. d.neg_t_inv_ones.(i))
  done;
  !acc

let variance d =
  let m1 = mean d in
  moment d 2 -. (m1 *. m1)

let scv d =
  let m1 = mean d in
  variance d /. (m1 *. m1)

(* Uniformization: with q >= max(-T_ii) and P = I + T/q, the phase
   distribution after time x is a Poisson(qx) mixture of α·Pⁿ. *)
let uniformized d =
  let k = phases d in
  let q = ref 1e-300 in
  for i = 0 to k - 1 do
    let v = -.M.get d.t_matrix i i in
    if v > !q then q := v
  done;
  let q = !q in
  let p = M.init k k (fun i j ->
      let v = M.get d.t_matrix i j /. q in
      if i = j then 1.0 +. v else v)
  in
  (q, p)

(* Σₙ Poisson(qx)(n) · f(α Pⁿ), truncated when the remaining Poisson
   tail is below tol. [weight_of] maps the current phase vector to the
   quantity being mixed. *)
let poisson_mixture ?(tol = 1e-12) d x weight_of =
  if x < 0.0 then 0.0
  else begin
    let q, p = uniformized d in
    let lam = q *. x in
    let v = ref (Array.copy d.alpha) in
    (* iterate Poisson terms; use logs to avoid overflow for large lam *)
    let log_term = ref (-.lam) in
    (* log of e^-lam * lam^0 / 0! *)
    let acc = ref 0.0 in
    let cum = ref 0.0 in
    let n = ref 0 in
    let continue_loop = ref true in
    while !continue_loop do
      let w = exp !log_term in
      acc := !acc +. (w *. weight_of !v);
      cum := !cum +. w;
      if 1.0 -. !cum < tol && !n > int_of_float lam then continue_loop := false
      else if !n > 100_000 then continue_loop := false
      else begin
        incr n;
        log_term := !log_term +. log (lam /. float_of_int !n);
        v := M.vec_mul !v p
      end
    done;
    !acc
  end

let cdf ?tol d x =
  if x <= 0.0 then 1.0 -. Array.fold_left ( +. ) 0.0 d.alpha
  else begin
    let survive v = Array.fold_left ( +. ) 0.0 v in
    let s = poisson_mixture ?tol d x survive in
    Float.max 0.0 (Float.min 1.0 (1.0 -. s))
  end

let pdf ?tol d x =
  if x < 0.0 then 0.0
  else begin
    let absorb v =
      let acc = ref 0.0 in
      for i = 0 to phases d - 1 do
        acc := !acc +. (v.(i) *. d.exit_rates.(i))
      done;
      !acc
    in
    Float.max 0.0 (poisson_mixture ?tol d x absorb)
  end

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Phase_type.quantile: p in (0,1)";
  let defect = 1.0 -. Array.fold_left ( +. ) 0.0 d.alpha in
  if p <= defect then 0.0
  else begin
    let hi = ref (Float.max (mean d) 1e-6) in
    while cdf d !hi < p do
      hi := !hi *. 2.0
    done;
    let lo = ref 0.0 and hi = ref !hi in
    for _ = 1 to 100 do
      let m = 0.5 *. (!lo +. !hi) in
      if cdf d m < p then lo := m else hi := m
    done;
    0.5 *. (!lo +. !hi)
  end

let pp ppf d =
  Format.fprintf ppf "PH(k=%d, mean=%.4g, scv=%.4g)" (phases d) (mean d) (scv d)
