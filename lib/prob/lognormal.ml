type t = { mu : float; sigma : float }

let create ~mu ~sigma =
  if sigma <= 0.0 || not (Float.is_finite mu) then
    invalid_arg "Lognormal.create: sigma must be positive";
  { mu; sigma }

let of_mean_scv ~mean ~scv =
  if mean <= 0.0 || scv <= 0.0 then
    invalid_arg "Lognormal.of_mean_scv: mean and scv must be positive";
  let sigma2 = log (1.0 +. scv) in
  { mu = log mean -. (0.5 *. sigma2); sigma = sqrt sigma2 }

let mu d = d.mu

let sigma d = d.sigma

let moment d k =
  if k < 1 then invalid_arg "Lognormal.moment: k must be >= 1";
  let kf = float_of_int k in
  exp ((kf *. d.mu) +. (0.5 *. kf *. kf *. d.sigma *. d.sigma))

let mean d = moment d 1

let variance d =
  let m1 = mean d in
  moment d 2 -. (m1 *. m1)

let scv d = exp (d.sigma *. d.sigma) -. 1.0

let pdf d x =
  if x <= 0.0 then 0.0
  else begin
    let z = (log x -. d.mu) /. d.sigma in
    exp (-0.5 *. z *. z) /. (x *. d.sigma *. sqrt (2.0 *. Float.pi))
  end

let cdf d x =
  if x <= 0.0 then 0.0 else Special.normal_cdf ((log x -. d.mu) /. d.sigma)

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Lognormal.quantile: p in (0,1)";
  exp (d.mu +. (d.sigma *. Special.normal_quantile p))

let pp ppf d = Format.fprintf ppf "Lognormal(mu=%g,sigma=%g)" d.mu d.sigma
