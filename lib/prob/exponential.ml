type t = { rate : float }

let create rate =
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Exponential.create: rate must be positive and finite";
  { rate }

let rate d = d.rate

let mean d = 1.0 /. d.rate

let variance d = 1.0 /. (d.rate *. d.rate)

let scv _ = 1.0

let moment d k =
  if k < 1 then invalid_arg "Exponential.moment: k must be >= 1";
  let acc = ref 1.0 in
  for i = 1 to k do
    acc := !acc *. float_of_int i /. d.rate
  done;
  !acc

let pdf d x = if x < 0.0 then 0.0 else d.rate *. exp (-.d.rate *. x)

let cdf d x = if x < 0.0 then 0.0 else 1.0 -. exp (-.d.rate *. x)

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Exponential.quantile: p in (0,1)";
  -.log (1.0 -. p) /. d.rate

let pp ppf d = Format.fprintf ppf "Exp(rate=%g)" d.rate
