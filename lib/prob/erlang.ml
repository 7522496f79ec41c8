type t = { k : int; rate : float }

let create ~k ~rate =
  if k < 1 then invalid_arg "Erlang.create: k must be >= 1";
  if rate <= 0.0 || not (Float.is_finite rate) then
    invalid_arg "Erlang.create: rate must be positive";
  { k; rate }

let stages d = d.k

let rate d = d.rate

let mean d = float_of_int d.k /. d.rate

let variance d = float_of_int d.k /. (d.rate *. d.rate)

let scv d = 1.0 /. float_of_int d.k

let moment d j =
  if j < 1 then invalid_arg "Erlang.moment: order must be >= 1";
  (* (k)(k+1)...(k+j-1) / rate^j *)
  let acc = ref 1.0 in
  for i = 0 to j - 1 do
    acc := !acc *. float_of_int (d.k + i) /. d.rate
  done;
  !acc

let pdf d x =
  if x < 0.0 then 0.0
  else begin
    let k = float_of_int d.k in
    let log_p =
      (k *. log d.rate)
      +. ((k -. 1.0) *. log (Float.max x 1e-300))
      -. (d.rate *. x)
      -. Special.log_gamma k
    in
    exp log_p
  end

let cdf d x =
  if x <= 0.0 then 0.0 else Special.gamma_p (float_of_int d.k) (d.rate *. x)

let quantile d p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Erlang.quantile: p in (0,1)";
  let hi = ref (Float.max (mean d) 1.0) in
  while cdf d !hi < p do
    hi := !hi *. 2.0
  done;
  let lo = ref 0.0 and hi = ref !hi in
  for _ = 1 to 200 do
    let m = 0.5 *. (!lo +. !hi) in
    if cdf d m < p then lo := m else hi := m
  done;
  0.5 *. (!lo +. !hi)

let pp ppf d = Format.fprintf ppf "Erlang(k=%d,rate=%g)" d.k d.rate
