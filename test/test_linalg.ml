(* Tests for the dense linear-algebra substrate: vectors, matrices, LU,
   QR, the Hessenberg/QR eigensolver, companion linearization and root
   finding. *)

open Urs_linalg

let approx ?(tol = 1e-9) a b = abs_float (a -. b) <= tol

let check_float ?(tol = 1e-9) msg expected actual =
  if not (approx ~tol expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let rand_state = Random.State.make [| 20260704 |]

let random_matrix n =
  Matrix.init n n (fun _ _ -> Random.State.float rand_state 2.0 -. 1.0)

(* ---- Vec ---- *)

let test_vec_basic () =
  let v = Vec.of_list [ 1.0; -2.0; 3.0 ] in
  check_float "dot" 14.0 (Vec.dot v v);
  check_float "norm2" (sqrt 14.0) (Vec.norm2 v);
  check_float "norm_inf" 3.0 (Vec.norm_inf v);
  check_float "sum" 2.0 (Vec.sum v);
  Alcotest.(check int) "max_abs_index" 2 (Vec.max_abs_index v);
  let w = Vec.add v (Vec.scale 2.0 v) in
  check_float "axpy-like" 9.0 w.(2)

let test_vec_axpy () =
  let x = Vec.of_list [ 1.0; 2.0 ] and y = Vec.of_list [ 10.0; 20.0 ] in
  Vec.axpy 3.0 x y;
  check_float "axpy 0" 13.0 y.(0);
  check_float "axpy 1" 26.0 y.(1)

let test_vec_normalize () =
  let v = Vec.normalize (Vec.of_list [ 3.0; 4.0 ]) in
  check_float "unit norm" 1.0 (Vec.norm2 v);
  check_float "direction" 0.6 v.(0)

let test_vec_mismatch () =
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Vec.add (Vec.create 2) (Vec.create 3)))

(* ---- Matrix ---- *)

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let b = Matrix.of_arrays [| [| 5.0; 6.0 |]; [| 7.0; 8.0 |] |] in
  let c = Matrix.mul a b in
  check_float "c00" 19.0 (Matrix.get c 0 0);
  check_float "c01" 22.0 (Matrix.get c 0 1);
  check_float "c10" 43.0 (Matrix.get c 1 0);
  check_float "c11" 50.0 (Matrix.get c 1 1)

let test_matrix_identity_mul () =
  let a = random_matrix 7 in
  let i = Matrix.identity 7 in
  Alcotest.(check bool) "aI = a" true (Matrix.approx_equal (Matrix.mul a i) a);
  Alcotest.(check bool) "Ia = a" true (Matrix.approx_equal (Matrix.mul i a) a)

let test_matrix_transpose () =
  let a = random_matrix 5 in
  Alcotest.(check bool) "transpose involution" true
    (Matrix.approx_equal (Matrix.transpose (Matrix.transpose a)) a)

let test_matrix_vec_mul () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let x = Vec.of_list [ 1.0; 1.0 ] in
  let y = Matrix.mul_vec a x in
  check_float "mul_vec 0" 3.0 y.(0);
  check_float "mul_vec 1" 7.0 y.(1);
  let z = Matrix.vec_mul x a in
  check_float "vec_mul 0" 4.0 z.(0);
  check_float "vec_mul 1" 6.0 z.(1)

let test_matrix_row_sums () =
  let a = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| -3.0; 4.0 |] |] in
  let rs = Matrix.row_sums a in
  check_float "row sum 0" 3.0 rs.(0);
  check_float "row sum 1" 1.0 rs.(1);
  check_float "trace" 5.0 (Matrix.trace a)

let test_matrix_blit () =
  let dst = Matrix.create 4 4 in
  let src = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Matrix.blit ~src ~dst 1 2;
  check_float "blit" 4.0 (Matrix.get dst 2 3);
  check_float "blit untouched" 0.0 (Matrix.get dst 0 0)

(* ---- Lu ---- *)

let test_lu_solve () =
  let a = Matrix.of_arrays [| [| 4.0; 3.0 |]; [| 6.0; 3.0 |] |] in
  let b = Vec.of_list [ 10.0; 12.0 ] in
  match Lu.solve_system a b with
  | Ok x ->
      check_float "x0" 1.0 x.(0);
      check_float "x1" 2.0 x.(1)
  | Error `Singular -> Alcotest.fail "unexpected singular"

let test_lu_random_residual () =
  for n = 1 to 12 do
    let a = random_matrix n in
    let b = Vec.init n (fun _ -> Random.State.float rand_state 1.0) in
    match Lu.solve_system a b with
    | Ok x ->
        let r = Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) in
        if r > 1e-9 then Alcotest.failf "residual %g at n=%d" r n
    | Error `Singular -> () (* random singular matrix: astronomically rare *)
  done

let test_lu_transposed_solve () =
  let a = random_matrix 8 in
  let b = Vec.init 8 (fun i -> float_of_int (i + 1)) in
  let f = Lu.factor_exn a in
  let x = Lu.solve_transposed f b in
  let r = Vec.norm_inf (Vec.sub (Matrix.mul_vec (Matrix.transpose a) x) b) in
  if r > 1e-9 then Alcotest.failf "transposed residual %g" r

let test_lu_det () =
  let a = Matrix.of_arrays [| [| 2.0; 0.0 |]; [| 1.0; 3.0 |] |] in
  check_float "det" 6.0 (Lu.det a);
  let sing = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_float "singular det" 0.0 (Lu.det sing)

let test_lu_det_permutation_sign () =
  (* a matrix needing a row swap: det must keep its sign *)
  let a = Matrix.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_float "det with pivot" (-1.0) (Lu.det a)

let test_lu_inverse () =
  let a = random_matrix 6 in
  match Lu.inverse a with
  | Ok inv ->
      Alcotest.(check bool) "a a⁻¹ = I" true
        (Matrix.approx_equal ~tol:1e-8 (Matrix.mul a inv) (Matrix.identity 6))
  | Error `Singular -> Alcotest.fail "unexpected singular"

let test_lu_log_det () =
  let a = Matrix.scalar 5 2.0 in
  let log_d, sign = Lu.log_abs_det a in
  Alcotest.(check int) "sign" 1 sign;
  check_float "log det" (5.0 *. log 2.0) log_d

let test_lu_singular_detection () =
  let sing = Matrix.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  (match Lu.factor sing with
  | Error `Singular -> ()
  | Ok _ -> Alcotest.fail "expected singular")

(* ---- eigenvalues ---- *)

let sorted_eigs m =
  let e = Eigen.eigenvalues m in
  Array.sort Cx.compare_by_modulus e;
  e

let test_eigen_diagonal () =
  let a = Matrix.diagonal (Vec.of_list [ 3.0; 1.0; 2.0 ]) in
  let e = sorted_eigs a in
  check_float "e0" 1.0 (Cx.re e.(0));
  check_float "e1" 2.0 (Cx.re e.(1));
  check_float "e2" 3.0 (Cx.re e.(2))

let test_eigen_complex_pair () =
  let a = Matrix.of_arrays [| [| 0.0; -1.0 |]; [| 1.0; 0.0 |] |] in
  let e = sorted_eigs a in
  check_float "re" 0.0 (Cx.re e.(0));
  check_float "im magnitude" 1.0 (abs_float (Cx.im e.(0)));
  check_float "conjugate" 0.0 (Cx.im e.(0) +. Cx.im e.(1))

let test_eigen_trace_det_identity () =
  for n = 2 to 14 do
    let a = random_matrix n in
    let e = Eigen.eigenvalues a in
    let sum = Array.fold_left Cx.add Cx.zero e in
    let prod = Array.fold_left Cx.mul Cx.one e in
    check_float ~tol:1e-7 "sum = trace" (Matrix.trace a) (Cx.re sum);
    check_float ~tol:1e-7 "sum imag = 0" 0.0 (Cx.im sum);
    let det = Lu.det a in
    let scale = Float.max 1.0 (abs_float det) in
    if abs_float (Cx.re prod -. det) /. scale > 1e-6 then
      Alcotest.failf "det mismatch at n=%d: %g vs %g" n (Cx.re prod) det
  done

let test_eigen_known_3x3 () =
  (* triangular: eigenvalues are the diagonal *)
  let a =
    Matrix.of_arrays [| [| 5.0; 1.0; 2.0 |]; [| 0.0; -2.0; 7.0 |]; [| 0.0; 0.0; 3.0 |] |]
  in
  let e = sorted_eigs a in
  check_float ~tol:1e-8 "e0" (-2.0) (Cx.re e.(0));
  check_float ~tol:1e-8 "e1" 3.0 (Cx.re e.(1));
  check_float ~tol:1e-8 "e2" 5.0 (Cx.re e.(2))

let test_eigenvector_residuals () =
  let a = random_matrix 10 in
  let e = Eigen.eigenvalues a in
  Array.iter
    (fun z ->
      let v = Eigen.right_eigenvector a z in
      let u = Eigen.left_eigenvector a z in
      if Eigen.residual_right a z v > 1e-8 then Alcotest.fail "right residual";
      if Eigen.residual_left a z u > 1e-8 then Alcotest.fail "left residual")
    e

let test_hessenberg_preserves_eigenvalues () =
  let a = random_matrix 8 in
  let h = Hessenberg.reduce a in
  Alcotest.(check bool) "is hessenberg" true (Hessenberg.is_hessenberg h);
  let e1 = sorted_eigs a in
  let e2 = Qr_eig.eigenvalues_hessenberg h in
  Array.sort Cx.compare_by_modulus e2;
  Array.iteri
    (fun i z ->
      if Cx.modulus (Cx.sub z e2.(i)) > 1e-7 then
        Alcotest.fail "eigenvalues differ after reduction")
    e1

let test_balance_preserves_eigenvalues () =
  let a =
    Matrix.of_arrays
      [| [| 1.0; 1e6 |]; [| 1e-6; 2.0 |] |]
  in
  let b = Hessenberg.balance a in
  let e1 = sorted_eigs a and e2 = sorted_eigs b in
  Array.iteri
    (fun i z ->
      if Cx.modulus (Cx.sub z e2.(i)) > 1e-7 then
        Alcotest.fail "balancing changed the spectrum")
    e1

(* ---- companion / quadratic eigenproblem ---- *)

let test_companion_scalar_quadratic () =
  (* scalar: 2 - 3z + z² = (z-1)(z-2): roots 1, 2 — none inside disk *)
  let m x = Matrix.of_arrays [| [| x |] |] in
  let zs =
    Companion.eigenvalues_inside_unit_disk ~q0:(m 2.0) ~q1:(m (-3.0)) ~q2:(m 1.0) ()
  in
  Alcotest.(check int) "no roots inside" 0 (Array.length zs)

let test_companion_scalar_root_inside () =
  (* (z - 1/2)(z - 3) = 3/2 - 3.5z + z² : root 0.5 inside *)
  let m x = Matrix.of_arrays [| [| x |] |] in
  let zs =
    Companion.eigenvalues_inside_unit_disk ~q0:(m 1.5) ~q1:(m (-3.5)) ~q2:(m 1.0) ()
  in
  Alcotest.(check int) "one root" 1 (Array.length zs);
  check_float ~tol:1e-10 "root value" 0.5 (Cx.re zs.(0))

let test_companion_singular_q2 () =
  (* singular Q2 produces "infinite" roots that must be discarded:
     Q(z) = diag(1.5 - 3.5z + z², 0.25 - 1.25z) — roots 0.5, 3, 0.2 *)
  let q0 = Matrix.diagonal (Vec.of_list [ 1.5; 0.25 ]) in
  let q1 = Matrix.diagonal (Vec.of_list [ -3.5; -1.25 ]) in
  let q2 = Matrix.diagonal (Vec.of_list [ 1.0; 0.0 ]) in
  let zs = Companion.eigenvalues_inside_unit_disk ~q0 ~q1 ~q2 () in
  Alcotest.(check int) "two inside" 2 (Array.length zs);
  check_float ~tol:1e-10 "z0" 0.2 (Cx.re zs.(0));
  check_float ~tol:1e-10 "z1" 0.5 (Cx.re zs.(1))

let test_companion_eigen_satisfy_det () =
  (* random quadratic, all roots found satisfy |det Q(z)| ≈ 0 *)
  let q0 = random_matrix 4 and q1 = random_matrix 4 and q2 = random_matrix 4 in
  let zs = Companion.eigenvalues_inside_unit_disk ~q0 ~q1 ~q2 () in
  Array.iter
    (fun z ->
      let d = Clu.det (Companion.evaluate ~q0 ~q1 ~q2 z) in
      if Cx.modulus d > 1e-6 then
        Alcotest.failf "det Q(z) = %g at claimed root" (Cx.modulus d))
    zs

(* ---- complex modules ---- *)

let test_clu_solve () =
  let n = 6 in
  let a =
    Cmatrix.init n n (fun i j ->
        Cx.make (Random.State.float rand_state 1.0)
          (if i = j then 0.5 else Random.State.float rand_state 0.2))
  in
  let b = Cvec.init n (fun i -> Cx.make (float_of_int i) 1.0) in
  match Clu.solve_system a b with
  | Ok x ->
      let r = Cvec.norm_inf (Cvec.sub (Cmatrix.mul_vec a x) b) in
      if r > 1e-9 then Alcotest.failf "complex residual %g" r
  | Error `Singular -> Alcotest.fail "unexpected singular"

let test_clu_null_vector () =
  (* construct a singular complex matrix with known null vector (1, -1) *)
  let a =
    Cmatrix.init 2 2 (fun i j ->
        let v = [| [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
        Cx.of_float v.(i).(j))
  in
  let v = Clu.null_vector a in
  let r = Cvec.norm_inf (Cmatrix.mul_vec a v) in
  if r > 1e-9 then Alcotest.failf "null vector residual %g" r;
  check_float "unit norm" 1.0 (Cvec.norm2 v)

let test_clu_left_null_vector () =
  let a =
    Cmatrix.init 2 2 (fun i j ->
        let v = [| [| 2.0; 4.0 |]; [| 1.0; 2.0 |] |] in
        Cx.of_float v.(i).(j))
  in
  let u = Clu.left_null_vector a in
  let r = Cvec.norm_inf (Cmatrix.vec_mul u a) in
  if r > 1e-9 then Alcotest.failf "left null residual %g" r

let test_clu_det () =
  let a = Cmatrix.init 2 2 (fun i j -> if i = j then Cx.make 0.0 1.0 else Cx.zero) in
  let d = Clu.det a in
  check_float "det re" (-1.0) (Cx.re d);
  check_float "det im" 0.0 (Cx.im d)

(* ---- band LU against the dense kernels ---- *)

(* a random complex n×n matrix with kl sub- and ku super-diagonals, as
   both a band and a dense matrix; [real] zeroes the imaginary parts *)
let random_band ?(real = false) n ~kl ~ku =
  let band = Cband.create ~n ~kl ~ku in
  let dense = Cmatrix.create n n in
  for i = 0 to n - 1 do
    for j = max 0 (i - kl) to min (n - 1) (i + ku) do
      let z =
        Cx.make
          (Random.State.float rand_state 2.0 -. 1.0)
          (if real then 0.0 else Random.State.float rand_state 2.0 -. 1.0)
      in
      Cband.set band i j (Cx.re z) (Cx.im z);
      Cmatrix.set dense i j z
    done
  done;
  (band, dense)

let band_shapes =
  [ (12, 2, 3); (10, 0, 3); (10, 3, 0); (8, 7, 7); (1, 0, 0); (30, 4, 4) ]

let rel_diff u v =
  Cvec.norm_inf (Cvec.sub u v) /. Float.max 1e-300 (Cvec.norm_inf v)

let check_rel_vec msg u v =
  let d = rel_diff u v in
  if d > 1e-12 then Alcotest.failf "%s: relative difference %.2e" msg d

let shape_label (n, kl, ku) = Printf.sprintf "n=%d kl=%d ku=%d" n kl ku

let real_part m =
  Matrix.init m.Cmatrix.rows m.Cmatrix.cols (fun i j ->
      Cx.re (Cmatrix.get m i j))

let test_band_solve_transposed () =
  List.iter
    (fun ((n, kl, ku) as shape) ->
      let band, dense = random_band n ~kl ~ku in
      let b =
        Cvec.init n (fun i ->
            Cx.make (float_of_int (i + 1)) (0.5 -. float_of_int i))
      in
      let fb, _ = Cband.factor_regularized band in
      let fd, _ = Clu.factor_regularized dense in
      let x = Cband.solve_transposed fb b in
      check_rel_vec (shape_label shape) x (Clu.solve_transposed fd b);
      (* and it really solves aᵀ x = b *)
      let r = Cvec.norm_inf (Cvec.sub (Cmatrix.vec_mul x dense) b) in
      if r > 1e-10 *. Cvec.norm_inf b then
        Alcotest.failf "%s: residual %.2e" (shape_label shape) r)
    band_shapes;
  (* a zero diagonal: every step must pivot, within the band *)
  List.iter
    (fun ((n, kl, ku) as shape) ->
      let band, dense = random_band n ~kl ~ku in
      for i = 0 to n - 1 do
        Cband.set band i i 0.0 0.0;
        Cmatrix.set dense i i Cx.zero
      done;
      let b = Cvec.init n (fun i -> Cx.make 1.0 (float_of_int i)) in
      let fb, patched = Cband.factor_regularized band in
      Alcotest.(check bool)
        (shape_label shape ^ " no patch needed")
        false patched;
      let fd, _ = Clu.factor_regularized dense in
      check_rel_vec
        (shape_label shape ^ " zero diagonal")
        (Cband.solve_transposed fb b) (Clu.solve_transposed fd b))
    [ (12, 2, 3); (8, 7, 7); (30, 4, 4) ]

(* zero column sums make the all-ones vector a left null vector *)
let singular_band n ~kl ~ku =
  let band, dense = random_band n ~kl ~ku in
  for j = 0 to n - 1 do
    let acc = ref Cx.zero in
    for i = max 0 (j - ku) to min (n - 1) (j + kl) do
      if i <> j then acc := Cx.add !acc (Cmatrix.get dense i j)
    done;
    let d = Cx.neg !acc in
    Cband.set band j j (Cx.re d) (Cx.im d);
    Cmatrix.set dense j j d
  done;
  (band, dense)

let test_band_left_null_vector () =
  List.iter
    (fun ((n, kl, ku) as shape) ->
      let band, dense = singular_band n ~kl ~ku in
      let u = Cband.left_null_vector band in
      check_rel_vec (shape_label shape) u (Clu.left_null_vector dense);
      let r = Cvec.norm_inf (Cband.vec_mul u band) in
      if r > 1e-10 then Alcotest.failf "%s: u·a = %.2e" (shape_label shape) r;
      check_float ~tol:1e-12 "unit norm" 1.0 (Cvec.norm2 u))
    (List.filter (fun (n, _, _) -> n > 1) band_shapes);
  (* the singular 1×1 matrix is zero: its patched pivot squares to an
     underflow, and both kernels refuse it alike *)
  let band, dense = singular_band 1 ~kl:0 ~ku:0 in
  Alcotest.check_raises "band, 1×1 zero" Clu.Singular (fun () ->
      ignore (Cband.left_null_vector band));
  Alcotest.check_raises "dense, 1×1 zero" Clu.Singular (fun () ->
      ignore (Clu.left_null_vector dense))

let test_band_vec_mul () =
  List.iter
    (fun ((n, kl, ku) as shape) ->
      let band, dense = random_band n ~kl ~ku in
      let x =
        Cvec.init n (fun i ->
            Cx.make (sin (float_of_int i)) (cos (float_of_int i)))
      in
      let y = Cband.vec_mul x band and yd = Cmatrix.vec_mul x dense in
      Array.iteri
        (fun j (z : Cx.t) ->
          if z <> yd.(j) && not (Cx.re z = 0.0 && Cx.im z = 0.0) then
            Alcotest.failf "%s: entry %d differs from the dense product"
              (shape_label shape) j)
        y)
    band_shapes

let test_band_log_det () =
  List.iter
    (fun ((n, kl, ku) as shape) ->
      (* complex: against the dense complex determinant *)
      let band, dense = random_band n ~kl ~ku in
      let log_abs, phase = Cband.log_abs_det band in
      let d = Clu.det dense in
      check_float ~tol:1e-12 (shape_label shape ^ " log|det|")
        (log (Cx.modulus d)) log_abs;
      check_float ~tol:1e-12 (shape_label shape ^ " phase re")
        (Cx.re d /. Cx.modulus d) (Cx.re phase);
      check_float ~tol:1e-12 (shape_label shape ^ " phase im")
        (Cx.im d /. Cx.modulus d) (Cx.im phase);
      (* real: against Lu, sign included *)
      let band, dense = random_band ~real:true n ~kl ~ku in
      let log_abs, phase = Cband.log_abs_det band in
      let expected, sign = Lu.log_abs_det (real_part dense) in
      let label = shape_label shape in
      check_float ~tol:1e-12 (label ^ " real log|det|") expected log_abs;
      Alcotest.(check (float 0.0))
        (label ^ " sign") (float_of_int sign) (Cx.re phase);
      Alcotest.(check (float 0.0)) (label ^ " real phase im") 0.0 (Cx.im phase))
    band_shapes

(* column k is zero, so step k meets an exactly zero pivot (row
   operations keep a zero column zero) *)
let zero_column_band n ~kl ~ku ~col =
  let band, dense = random_band n ~kl ~ku in
  for i = max 0 (col - ku) to min (n - 1) (col + kl) do
    Cband.set band i col 0.0 0.0;
    Cmatrix.set dense i col Cx.zero
  done;
  (band, dense)

let test_band_zero_pivot () =
  let n, kl, ku = (9, 2, 3) in
  let band, dense = zero_column_band n ~kl ~ku ~col:4 in
  let _, patched = Cband.factor_regularized band in
  Alcotest.(check bool) "pivot patched" true patched;
  let u = Cband.left_null_vector band in
  check_rel_vec "left null vector" u (Clu.left_null_vector dense);
  let r = Cvec.norm_inf (Cband.vec_mul u band) in
  if r > 1e-10 then Alcotest.failf "u·a = %.2e" r;
  let log_abs, phase = Cband.log_abs_det band in
  Alcotest.(check (float 0.0))
    "log|det| of a singular matrix" neg_infinity log_abs;
  Alcotest.(check (float 0.0)) "sign 0" 0.0 (Cx.re phase);
  let real_band, real_dense = zero_column_band n ~kl ~ku ~col:0 in
  let _, sign = Lu.log_abs_det (real_part real_dense) in
  Alcotest.(check int) "dense Lu agrees: sign 0" 0 sign;
  Alcotest.(check (float 0.0)) "band sign 0 at column 0" 0.0
    (Cx.re (snd (Cband.log_abs_det real_band)))

let test_band_outside_rejected () =
  let a = Cband.create ~n:5 ~kl:1 ~ku:2 in
  let outside = Invalid_argument "Cband.set: entry outside the band" in
  Alcotest.check_raises "below the band" outside (fun () ->
      Cband.set a 3 1 1.0 0.0);
  Alcotest.check_raises "above the band" outside (fun () ->
      Cband.set a 0 3 1.0 0.0)

let test_cvec_normalize_phase () =
  let v = Cvec.init 2 (fun i -> if i = 0 then Cx.make 0.0 2.0 else Cx.one) in
  let n = Cvec.normalize v in
  (* dominant component must be rotated to the positive real axis *)
  check_float "dominant is real" 0.0 (Cx.im n.(Cvec.max_abs_index n));
  Alcotest.(check bool) "dominant positive" true (Cx.re n.(Cvec.max_abs_index n) > 0.0)

let test_cmatrix_arithmetic () =
  let a = Cmatrix.init 2 2 (fun i j -> Cx.make (float_of_int (i + j)) 1.0) in
  let b = Cmatrix.identity 2 in
  let sum = Cmatrix.add a b in
  if not (Cx.approx_equal (Cmatrix.get sum 0 0) (Cx.make 1.0 1.0)) then
    Alcotest.fail "add wrong";
  let diff = Cmatrix.sub sum b in
  Alcotest.(check bool) "sub inverts add" true (Cmatrix.approx_equal diff a);
  let scaled = Cmatrix.scale (Cx.make 0.0 1.0) b in
  (* i·I: conj transpose is −i·I *)
  let ct = Cmatrix.conj_transpose scaled in
  if not (Cx.approx_equal (Cmatrix.get ct 0 0) (Cx.make 0.0 (-1.0))) then
    Alcotest.fail "conj transpose wrong"

let test_cx_helpers () =
  let z = Cx.make 3.0 4.0 in
  check_float "modulus" 5.0 (Cx.modulus z);
  check_float "modulus2" 25.0 (Cx.modulus2 z);
  check_float "abs1" 7.0 (Cx.abs1 z);
  Alcotest.(check bool) "is_real false" false (Cx.is_real z);
  Alcotest.(check bool) "is_real true" true (Cx.is_real (Cx.of_float 2.0));
  let w = Cx.div z z in
  Alcotest.(check bool) "z/z = 1" true (Cx.approx_equal w Cx.one);
  Alcotest.(check int) "compare by modulus" (-1)
    (Cx.compare_by_modulus Cx.one z)

let test_eigen_symmetric_real_spectrum () =
  (* symmetric matrices have real eigenvalues *)
  let n = 8 in
  let half = random_matrix n in
  let a = Matrix.scale 0.5 (Matrix.add half (Matrix.transpose half)) in
  let e = Eigen.eigenvalues a in
  Array.iter
    (fun z ->
      if abs_float (Cx.im z) > 1e-7 then
        Alcotest.failf "complex eigenvalue %a of a symmetric matrix" Cx.pp z)
    e

let test_eigen_stochastic_has_unit_eigenvalue () =
  (* a row-stochastic matrix has eigenvalue 1 *)
  let n = 6 in
  let raw = Matrix.init n n (fun _ _ -> Random.State.float rand_state 1.0 +. 0.01) in
  let a =
    Matrix.init n n (fun i j ->
        Matrix.get raw i j /. Vec.sum (Matrix.row raw i))
  in
  let e = Eigen.eigenvalues a in
  let has_one =
    Array.exists (fun z -> Cx.modulus (Cx.sub z Cx.one) < 1e-8) e
  in
  Alcotest.(check bool) "eigenvalue 1 present" true has_one

(* ---- root finding ---- *)

let test_bisect () =
  let root = Rootfind.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_float ~tol:1e-10 "sqrt 2" (sqrt 2.0) root

let test_brent () =
  let root = Rootfind.brent (fun x -> cos x -. x) 0.0 1.0 in
  check_float ~tol:1e-10 "dottie number" 0.7390851332151607 root

let test_brent_linear () =
  let root = Rootfind.brent (fun x -> (2.0 *. x) -. 1.0) 0.0 10.0 in
  check_float ~tol:1e-9 "linear root" 0.5 root

let test_largest_root () =
  (* roots at 0.3 and 0.8: must find 0.8 *)
  let f x = (x -. 0.3) *. (x -. 0.8) in
  match Rootfind.largest_root_in f 0.0 1.0 with
  | Some r -> check_float ~tol:1e-9 "largest root" 0.8 r
  | None -> Alcotest.fail "no root found"

let test_largest_root_none () =
  match Rootfind.largest_root_in (fun x -> x +. 1.0) 0.0 1.0 with
  | Some _ -> Alcotest.fail "expected no root"
  | None -> ()

(* ---- iteration exhaustion and observation ---- *)

let test_bisect_exhausted () =
  match
    Rootfind.bisect ~max_iter:3 ~tol:1e-15 (fun x -> (x *. x) -. 2.0) 0.0 2.0
  with
  | exception Rootfind.Exhausted { name; iterations; width; best } ->
      Alcotest.(check string) "solver name" "bisect" name;
      Alcotest.(check int) "iterations in payload" 3 iterations;
      if not (width > 0.0 && width < 2.0) then
        Alcotest.failf "bracket width %g not narrowed" width;
      if not (best > 0.0 && best < 2.0) then
        Alcotest.failf "best estimate %g outside bracket" best
  | _ -> Alcotest.fail "3 bisections cannot reach 1e-15"

let test_brent_exhausted () =
  match Rootfind.brent ~max_iter:2 ~tol:1e-15 (fun x -> cos x -. x) 0.0 1.0 with
  | exception Rootfind.Exhausted { name; iterations; _ } ->
      Alcotest.(check string) "solver name" "brent" name;
      Alcotest.(check int) "iterations in payload" 2 iterations
  | _ -> Alcotest.fail "2 Brent steps cannot reach 1e-15"

let test_brent_observed_unchanged () =
  let plain = Rootfind.brent (fun x -> cos x -. x) 0.0 1.0 in
  let iters = ref 0 and last_width = ref infinity in
  let observed =
    Rootfind.brent
      ~observe:(fun ~iteration ~width ~best:_ ->
        incr iters;
        Alcotest.(check int) "iterations count up" !iters iteration;
        last_width := width)
      (fun x -> cos x -. x)
      0.0 1.0
  in
  Alcotest.(check bool) "callback fired" true (!iters > 0);
  if !last_width > 1e-10 then
    Alcotest.failf "final bracket width %g not observed" !last_width;
  (* the callback only reads values already computed: bit-identical *)
  Alcotest.(check bool) "root unchanged" true (plain = observed)

let test_eigen_observed_bit_identical () =
  let a = random_matrix 8 in
  let plain = Eigen.eigenvalues a in
  let sweeps = ref 0 and deflations = ref 0 in
  let observed =
    Eigen.eigenvalues
      ~observe:(fun p ->
        match p.Qr_eig.event with
        | Qr_eig.Sweep -> incr sweeps
        | Qr_eig.Deflate -> incr deflations)
      a
  in
  Alcotest.(check bool) "sweeps observed" true (!sweeps > 0);
  Alcotest.(check bool) "deflations observed" true (!deflations > 0);
  Alcotest.(check int)
    "same count" (Array.length plain) (Array.length observed);
  Array.iteri
    (fun i z ->
      (* exact equality, not approximate: observation must not perturb
         a single floating-point operation *)
      if Cx.re z <> Cx.re observed.(i) || Cx.im z <> Cx.im observed.(i) then
        Alcotest.failf "eigenvalue %d differs under observation" i)
    plain

let test_qr_exhaustion_payload () =
  let a = random_matrix 8 in
  match Eigen.eigenvalues ~max_iter:1 a with
  | exception Qr_eig.No_convergence { dim; block; iterations } ->
      Alcotest.(check int) "dim" 8 dim;
      Alcotest.(check int) "iterations" 1 iterations;
      Alcotest.(check bool) "stuck block plausible" true
        (block >= 1 && block <= 8)
  | _ -> Alcotest.fail "one sweep cannot triangularize an 8x8 matrix"

(* ---- qcheck properties ---- *)

let small_dim = QCheck2.Gen.int_range 1 8

let gen_matrix =
  QCheck2.Gen.(
    small_dim >>= fun n ->
    array_size (return (n * n)) (float_range (-1.0) 1.0) >|= fun data ->
    Matrix.init n n (fun i j -> data.((i * n) + j)))

let prop_lu_roundtrip =
  QCheck2.Test.make ~name:"lu solve residual small" ~count:60 gen_matrix
    (fun a ->
      let n = a.Matrix.rows in
      let b = Vec.init n (fun i -> float_of_int (i + 1)) in
      match Lu.solve_system a b with
      | Error `Singular -> true (* degenerate draw *)
      | Ok x ->
          let scale = Float.max 1.0 (Matrix.norm_inf a) in
          (* condition number can be large for random matrices; accept a
             generous residual bound *)
          Vec.norm_inf (Vec.sub (Matrix.mul_vec a x) b) /. scale < 1e-6)

let prop_eigen_count =
  QCheck2.Test.make ~name:"eigenvalue count = dimension" ~count:40 gen_matrix
    (fun a -> Array.length (Eigen.eigenvalues a) = a.Matrix.rows)

let prop_transpose_mul =
  QCheck2.Test.make ~name:"(AB)ᵀ = BᵀAᵀ" ~count:60 gen_matrix (fun a ->
      let b = Matrix.identity a.Matrix.rows in
      let b = Matrix.add b a in
      Matrix.approx_equal ~tol:1e-9
        (Matrix.transpose (Matrix.mul a b))
        (Matrix.mul (Matrix.transpose b) (Matrix.transpose a)))

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_linalg"
    [
      ( "vec",
        [
          Alcotest.test_case "basic ops" `Quick test_vec_basic;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "normalize" `Quick test_vec_normalize;
          Alcotest.test_case "dimension mismatch" `Quick test_vec_mismatch;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "2x2 product" `Quick test_matrix_mul;
          Alcotest.test_case "identity product" `Quick test_matrix_identity_mul;
          Alcotest.test_case "transpose involution" `Quick test_matrix_transpose;
          Alcotest.test_case "matrix-vector products" `Quick test_matrix_vec_mul;
          Alcotest.test_case "row sums and trace" `Quick test_matrix_row_sums;
          Alcotest.test_case "blit" `Quick test_matrix_blit;
        ] );
      ( "lu",
        [
          Alcotest.test_case "2x2 solve" `Quick test_lu_solve;
          Alcotest.test_case "random residuals" `Quick test_lu_random_residual;
          Alcotest.test_case "transposed solve" `Quick test_lu_transposed_solve;
          Alcotest.test_case "determinant" `Quick test_lu_det;
          Alcotest.test_case "determinant sign under pivoting" `Quick
            test_lu_det_permutation_sign;
          Alcotest.test_case "inverse" `Quick test_lu_inverse;
          Alcotest.test_case "log determinant" `Quick test_lu_log_det;
          Alcotest.test_case "singular detection" `Quick test_lu_singular_detection;
        ] );
      ( "eigen",
        [
          Alcotest.test_case "diagonal" `Quick test_eigen_diagonal;
          Alcotest.test_case "complex pair" `Quick test_eigen_complex_pair;
          Alcotest.test_case "trace and det identities" `Quick
            test_eigen_trace_det_identity;
          Alcotest.test_case "triangular 3x3" `Quick test_eigen_known_3x3;
          Alcotest.test_case "eigenvector residuals" `Quick
            test_eigenvector_residuals;
          Alcotest.test_case "hessenberg preserves spectrum" `Quick
            test_hessenberg_preserves_eigenvalues;
          Alcotest.test_case "balancing preserves spectrum" `Quick
            test_balance_preserves_eigenvalues;
        ] );
      ( "companion",
        [
          Alcotest.test_case "scalar, no roots inside" `Quick
            test_companion_scalar_quadratic;
          Alcotest.test_case "scalar, root inside" `Quick
            test_companion_scalar_root_inside;
          Alcotest.test_case "singular Q2" `Quick test_companion_singular_q2;
          Alcotest.test_case "roots satisfy det Q = 0" `Quick
            test_companion_eigen_satisfy_det;
        ] );
      ( "complex",
        [
          Alcotest.test_case "clu solve" `Quick test_clu_solve;
          Alcotest.test_case "null vector" `Quick test_clu_null_vector;
          Alcotest.test_case "left null vector" `Quick test_clu_left_null_vector;
          Alcotest.test_case "complex determinant" `Quick test_clu_det;
          Alcotest.test_case "cvec phase normalization" `Quick
            test_cvec_normalize_phase;
        ] );
      ( "band lu",
        [
          Alcotest.test_case "transposed solve matches Clu" `Quick
            test_band_solve_transposed;
          Alcotest.test_case "left null vector matches Clu" `Quick
            test_band_left_null_vector;
          Alcotest.test_case "vec_mul matches Cmatrix" `Quick test_band_vec_mul;
          Alcotest.test_case "log|det| matches Clu and Lu" `Quick
            test_band_log_det;
          Alcotest.test_case "exact zero pivot and singular det" `Quick
            test_band_zero_pivot;
          Alcotest.test_case "entries outside the band rejected" `Quick
            test_band_outside_rejected;
        ] );
      ( "complex extras",
        [
          Alcotest.test_case "cmatrix arithmetic" `Quick test_cmatrix_arithmetic;
          Alcotest.test_case "cx helpers" `Quick test_cx_helpers;
        ] );
      ( "eigen extras",
        [
          Alcotest.test_case "symmetric spectrum real" `Quick
            test_eigen_symmetric_real_spectrum;
          Alcotest.test_case "stochastic matrix has eigenvalue 1" `Quick
            test_eigen_stochastic_has_unit_eigenvalue;
        ] );
      ( "rootfind",
        [
          Alcotest.test_case "bisection" `Quick test_bisect;
          Alcotest.test_case "brent" `Quick test_brent;
          Alcotest.test_case "brent on linear" `Quick test_brent_linear;
          Alcotest.test_case "largest root" `Quick test_largest_root;
          Alcotest.test_case "no root" `Quick test_largest_root_none;
        ] );
      ( "observation",
        [
          Alcotest.test_case "bisect exhaustion payload" `Quick
            test_bisect_exhausted;
          Alcotest.test_case "brent exhaustion payload" `Quick
            test_brent_exhausted;
          Alcotest.test_case "brent observed, root unchanged" `Quick
            test_brent_observed_unchanged;
          Alcotest.test_case "eigenvalues bit-identical observed" `Quick
            test_eigen_observed_bit_identical;
          Alcotest.test_case "qr exhaustion payload" `Quick
            test_qr_exhaustion_payload;
        ] );
      ("properties", qc [ prop_lu_roundtrip; prop_eigen_count; prop_transpose_mul ]);
    ]
