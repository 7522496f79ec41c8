type t = { value : float }

let create value =
  if value < 0.0 || not (Float.is_finite value) then
    invalid_arg "Deterministic.create: value must be nonnegative and finite";
  { value }

let value d = d.value

let mean d = d.value

let variance _ = 0.0

let scv _ = 0.0

let moment d k =
  if k < 1 then invalid_arg "Deterministic.moment: k must be >= 1";
  d.value ** float_of_int k

let cdf d x = if x >= d.value then 1.0 else 0.0

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Deterministic.quantile: p in (0,1)";
  d.value

let pp ppf d = Format.fprintf ppf "Det(%g)" d.value
