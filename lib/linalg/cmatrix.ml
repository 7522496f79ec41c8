type t = { rows : int; cols : int; data : Cx.t array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Cmatrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) Cx.zero }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)

let of_real (a : Matrix.t) =
  init a.Matrix.rows a.Matrix.cols (fun i j -> Cx.of_float (Matrix.get a i j))

let get m i j = m.data.((i * m.cols) + j)

let set m i j x = m.data.((i * m.cols) + j) <- x

let conj_transpose m = init m.cols m.rows (fun i j -> Cx.conj (get m j i))

let check_same a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Cmatrix: dimension mismatch"

let add a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> Cx.add a.data.(k) b.data.(k)) }

let sub a b =
  check_same a b;
  { a with data = Array.init (Array.length a.data) (fun k -> Cx.sub a.data.(k) b.data.(k)) }

let scale x m = { m with data = Array.map (Cx.mul x) m.data }

let mul_vec m x =
  if m.cols <> Cvec.dim x then invalid_arg "Cmatrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to m.cols - 1 do
        acc := Cx.add !acc (Cx.mul m.data.((i * m.cols) + j) x.(j))
      done;
      !acc)

let vec_mul x m =
  if m.rows <> Cvec.dim x then invalid_arg "Cmatrix.vec_mul: dimension mismatch";
  let y = Array.make m.cols Cx.zero in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> Cx.zero then
      for j = 0 to m.cols - 1 do
        y.(j) <- Cx.add y.(j) (Cx.mul xi m.data.((i * m.cols) + j))
      done
  done;
  y

let max_abs m =
  Array.fold_left (fun acc z -> Float.max acc (Cx.modulus z)) 0.0 m.data

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs (sub a b) <= tol
