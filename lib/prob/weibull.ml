type t = { shape : float; scale : float }

let create ~shape ~scale =
  if shape <= 0.0 || scale <= 0.0 then
    invalid_arg "Weibull.create: shape and scale must be positive";
  { shape; scale }

let shape d = d.shape

let scale d = d.scale

let moment d k =
  if k < 1 then invalid_arg "Weibull.moment: k must be >= 1";
  let kf = float_of_int k in
  (d.scale ** kf) *. exp (Special.log_gamma (1.0 +. (kf /. d.shape)))

let mean d = moment d 1

let variance d =
  let m1 = mean d in
  moment d 2 -. (m1 *. m1)

let scv d =
  let m1 = mean d in
  variance d /. (m1 *. m1)

let pdf d x =
  if x < 0.0 then 0.0
  else begin
    let z = x /. d.scale in
    d.shape /. d.scale
    *. (z ** (d.shape -. 1.0))
    *. exp (-.(z ** d.shape))
  end

let cdf d x =
  if x <= 0.0 then 0.0 else 1.0 -. exp (-.((x /. d.scale) ** d.shape))

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Weibull.quantile: p in (0,1)";
  d.scale *. ((-.log (1.0 -. p)) ** (1.0 /. d.shape))

let pp ppf d = Format.fprintf ppf "Weibull(shape=%g,scale=%g)" d.shape d.scale
