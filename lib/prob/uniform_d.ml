type t = { lo : float; hi : float }

let create ~lo ~hi =
  if lo < 0.0 || hi <= lo || not (Float.is_finite hi) then
    invalid_arg "Uniform_d.create: requires 0 <= lo < hi";
  { lo; hi }

let lo d = d.lo

let hi d = d.hi

let mean d = 0.5 *. (d.lo +. d.hi)

let variance d =
  let w = d.hi -. d.lo in
  w *. w /. 12.0

let scv d =
  let m = mean d in
  variance d /. (m *. m)

let moment d k =
  if k < 1 then invalid_arg "Uniform_d.moment: k must be >= 1";
  let k1 = float_of_int (k + 1) in
  ((d.hi ** k1) -. (d.lo ** k1)) /. (k1 *. (d.hi -. d.lo))

let pdf d x = if x < d.lo || x > d.hi then 0.0 else 1.0 /. (d.hi -. d.lo)

let cdf d x =
  if x <= d.lo then 0.0
  else if x >= d.hi then 1.0
  else (x -. d.lo) /. (d.hi -. d.lo)

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Uniform_d.quantile: p in (0,1)";
  d.lo +. (p *. (d.hi -. d.lo))

let pp ppf d = Format.fprintf ppf "U(%g,%g)" d.lo d.hi
