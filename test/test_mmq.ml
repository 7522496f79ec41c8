(* Tests for the Markov-modulated queue machinery: environment
   enumeration (§3), QBD blocks, the spectral-expansion solver (§3.1),
   the geometric approximation (§3.2), the matrix-geometric
   cross-check, stability (eq. 11) and the M/M/c baseline. *)

open Urs_mmq
module H = Urs_prob.Hyperexponential
module M = Urs_linalg.Matrix
module V = Urs_linalg.Vec
module Cx = Urs_linalg.Cx

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let paper_operative = H.of_pairs [ (0.7246, 0.1663); (0.2754, 0.0091) ]

let exp_dist rate = H.create ~weights:[| 1.0 |] ~rates:[| rate |]

let paper_env ~servers =
  Environment.create ~servers ~operative:paper_operative
    ~inoperative:(exp_dist 25.0)

let solve_exn q =
  match Spectral.solve q with
  | Ok sol -> sol
  | Error e -> Alcotest.failf "spectral solve failed: %a" Spectral.pp_error e

(* ---- Environment ---- *)

let test_mode_count_formula () =
  (* s = C(N+n+m-1, n+m-1), eq. (12) *)
  List.iter
    (fun (servers, n, m, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "N=%d n=%d m=%d" servers n m)
        expected
        (Environment.count_modes ~servers ~op_phases:n ~inop_phases:m))
    [ (2, 2, 1, 6); (10, 2, 1, 66); (17, 2, 1, 171); (3, 2, 2, 20); (1, 1, 1, 2) ]

let test_mode_enumeration_matches_count () =
  let op = H.create ~weights:[| 0.4; 0.6 |] ~rates:[| 0.5; 0.125 |] in
  let inop = H.create ~weights:[| 0.7; 0.3 |] ~rates:[| 2.0; 1.0 |] in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  Alcotest.(check int) "enumerated = formula"
    (Environment.count_modes ~servers:4 ~op_phases:2 ~inop_phases:2)
    (Environment.num_modes env)

let test_mode_ordering_matches_paper () =
  (* §3.1 worked example: N=2, n=2, m=1 — the six modes in the paper's
     order *)
  let env = paper_env ~servers:2 in
  let expect =
    [|
      ([| 0; 0 |], [| 2 |]);
      ([| 1; 0 |], [| 1 |]);
      ([| 0; 1 |], [| 1 |]);
      ([| 2; 0 |], [| 0 |]);
      ([| 1; 1 |], [| 0 |]);
      ([| 0; 2 |], [| 0 |]);
    |]
  in
  Array.iteri
    (fun i (x, y) ->
      let md = Environment.mode env i in
      if md.Environment.x <> x || md.Environment.y <> y then
        Alcotest.failf "mode %d differs from the paper's enumeration" i)
    expect

let test_mode_index_roundtrip () =
  let env = paper_env ~servers:5 in
  for i = 0 to Environment.num_modes env - 1 do
    let md = Environment.mode env i in
    Alcotest.(check int) "roundtrip" i (Environment.index_of_mode env md)
  done

let test_transition_matrix_matches_paper_example () =
  (* the explicit 6x6 matrix A printed in §3.1, with
     ξ1=0.5, ξ2=0.125, η=2, α1=0.4, α2=0.6 *)
  let xi1 = 0.5 and xi2 = 0.125 and eta = 2.0 and a1 = 0.4 and a2 = 0.6 in
  let op = H.create ~weights:[| a1; a2 |] ~rates:[| xi1; xi2 |] in
  let env =
    Environment.create ~servers:2 ~operative:op ~inoperative:(exp_dist eta)
  in
  let a = Environment.transition_matrix env in
  let expected =
    M.of_arrays
      [|
        [| 0.0; 2.0 *. eta *. a1; 2.0 *. eta *. a2; 0.0; 0.0; 0.0 |];
        [| xi1; 0.0; 0.0; eta *. a1; eta *. a2; 0.0 |];
        [| xi2; 0.0; 0.0; 0.0; eta *. a1; eta *. a2 |];
        [| 0.0; 2.0 *. xi1; 0.0; 0.0; 0.0; 0.0 |];
        [| 0.0; xi2; xi1; 0.0; 0.0; 0.0 |];
        [| 0.0; 0.0; 2.0 *. xi2; 0.0; 0.0; 0.0 |];
      |]
  in
  Alcotest.(check bool) "A matches the paper" true (M.approx_equal a expected)

let test_availability () =
  let env = paper_env ~servers:10 in
  (* mean op 34.62, mean inop 0.04: avail = 34.62/34.66 *)
  check_float ~tol:1e-4 "availability" (34.6209 /. 34.6609)
    (Environment.availability env);
  check_float ~tol:1e-2 "mean operative" 9.98845
    (Environment.mean_operative_servers env)

let test_stationary_mode_probabilities_sum_to_one () =
  let env = paper_env ~servers:6 in
  let total = ref 0.0 in
  for i = 0 to Environment.num_modes env - 1 do
    let p = Environment.stationary_mode_probability env i in
    if p < 0.0 then Alcotest.fail "negative mode probability";
    total := !total +. p
  done;
  check_float ~tol:1e-12 "sum to 1" 1.0 !total

let test_stationary_matches_environment_balance () =
  (* the multinomial stationary vector must satisfy πQ_env = 0 where
     Q_env = A - D^A *)
  let env = paper_env ~servers:4 in
  let s = Environment.num_modes env in
  let a = Environment.transition_matrix env in
  let d = M.diagonal (M.row_sums a) in
  let gen = M.sub a d in
  let pi =
    Array.init s (fun i -> Environment.stationary_mode_probability env i)
  in
  let r = M.vec_mul pi gen in
  if V.norm_inf r > 1e-10 then
    Alcotest.failf "stationary residual %g" (V.norm_inf r)

(* ---- Stability (eq. 11) ---- *)

let test_stability_threshold () =
  let env = paper_env ~servers:10 in
  let cap = Environment.mean_operative_servers env in
  let v = Stability.check ~env ~lambda:(cap *. 0.99) ~mu:1.0 in
  Alcotest.(check bool) "stable below capacity" true v.Stability.stable;
  let v = Stability.check ~env ~lambda:(cap *. 1.01) ~mu:1.0 in
  Alcotest.(check bool) "unstable above capacity" false v.Stability.stable;
  check_float ~tol:1e-9 "max rate" cap (Stability.max_arrival_rate ~env ~mu:1.0)

(* ---- QBD blocks ---- *)

let test_qbd_blocks () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.5 in
  let s = Qbd.s q in
  (* B = λI *)
  Alcotest.(check bool) "B = λI" true
    (M.approx_equal (Qbd.b q) (M.scalar s 2.0));
  (* C_0 = 0 *)
  Alcotest.(check bool) "C_0 = 0" true (M.approx_equal (Qbd.c q 0) (M.create s s));
  (* C_j diagonal with min(ops, j)·µ *)
  let c2 = Qbd.c q 2 in
  for i = 0 to s - 1 do
    let expected =
      float_of_int (min (Environment.operative_servers env i) 2) *. 1.5
    in
    check_float "C_2 diag" expected (M.get c2 i i)
  done;
  (* c_diag agrees with c *)
  let cd = Qbd.c_diag q 5 in
  let cm = Qbd.c q 5 in
  for i = 0 to s - 1 do
    check_float "c_diag" (M.get cm i i) cd.(i)
  done;
  (* Q(1) must be singular: it is the environment generator *)
  let d = Urs_linalg.Clu.det (Qbd.char_poly_at q Cx.one) in
  if Cx.modulus d > 1e-8 then Alcotest.failf "det Q(1) = %g" (Cx.modulus d)

let test_transition_block_nonsingular () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  for j = 0 to 5 do
    match Urs_linalg.Lu.factor (Qbd.transition_block q j) with
    | Ok _ -> ()
    | Error `Singular -> Alcotest.failf "T_%d singular" j
  done

(* ---- Spectral expansion ---- *)

let test_spectral_matches_mmc_when_reliable () =
  (* nearly-always-operative servers: must reproduce Erlang C *)
  let op = exp_dist 1e-9 and inop = exp_dist 1e3 in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  let l_exact = Mmc.mean_queue_length ~servers:4 ~lambda:3.0 ~mu:1.0 in
  check_float ~tol:1e-5 "L matches M/M/4" l_exact (Spectral.mean_queue_length sol)

let test_spectral_mm1_with_breakdowns_closed_form () =
  (* N=1, exponential op/inop: the M/M/1 queue in a random environment.
     Verify against the matrix-geometric solution and basic identities. *)
  let env =
    Environment.create ~servers:1 ~operative:(exp_dist 0.1)
      ~inoperative:(exp_dist 1.0)
  in
  let q = Qbd.create ~env ~lambda:0.5 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-8 "spectral = matrix-geometric"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  check_float ~tol:1e-10 "busy = λ/µ" 0.5 (Spectral.mean_busy_servers sol)

let test_spectral_waiting_metrics () =
  (* near-reliable: waiting time must match Erlang-C's Wq *)
  let op = exp_dist 1e-9 and inop = exp_dist 1e3 in
  let env = Environment.create ~servers:4 ~operative:op ~inoperative:inop in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-5 "Wq matches Erlang C"
    (Mmc.mean_waiting_time ~servers:4 ~lambda:3.0 ~mu:1.0)
    (Spectral.mean_waiting_time sol);
  check_float ~tol:1e-10 "Lq = L - λ/µ"
    (Spectral.mean_queue_length sol -. 3.0)
    (Spectral.mean_waiting_jobs sol)

let test_spectral_eigenvalue_count_and_range () =
  let env = paper_env ~servers:6 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  let zs = Spectral.eigenvalues sol in
  Alcotest.(check int) "s eigenvalues" (Qbd.s q) (Array.length zs);
  Array.iter
    (fun z ->
      if Cx.modulus z >= 1.0 then Alcotest.fail "eigenvalue outside unit disk")
    zs;
  let zd = Spectral.dominant_eigenvalue sol in
  Alcotest.(check bool) "dominant real positive" true (zd > 0.0 && zd < 1.0)

let test_spectral_probabilities_normalize () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  (* level probabilities sum to 1 (tail via closed form) *)
  let head = ref 0.0 in
  for j = 0 to 3 do
    head := !head +. Spectral.level_probability sol j
  done;
  check_float ~tol:1e-10 "head + tail = 1" 1.0 (!head +. Spectral.tail_probability sol 4);
  (* tail is decreasing *)
  let t1 = Spectral.tail_probability sol 10 in
  let t2 = Spectral.tail_probability sol 20 in
  Alcotest.(check bool) "tail decreasing" true (t2 < t1);
  (* L = Σ j p_j matches the closed form, summed far into the tail *)
  let l_direct = ref 0.0 in
  for j = 1 to 4000 do
    l_direct := !l_direct +. (float_of_int j *. Spectral.level_probability sol j)
  done;
  check_float ~tol:1e-6 "L closed form vs direct sum" !l_direct
    (Spectral.mean_queue_length sol)

let test_spectral_mode_marginals_match_multinomial () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  let mm = Spectral.mode_marginals sol in
  for i = 0 to Qbd.s q - 1 do
    check_float ~tol:1e-9 "marginal"
      (Environment.stationary_mode_probability env i)
      mm.(i)
  done

let test_spectral_busy_servers_identity () =
  (* in steady state the expected number of busy servers is λ/µ *)
  let env = paper_env ~servers:8 in
  let q = Qbd.create ~env ~lambda:6.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-8 "busy = λ/µ" 6.0 (Spectral.mean_busy_servers sol)

let test_spectral_balance_residual () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  if Spectral.residual sol > 1e-10 then
    Alcotest.failf "balance residual %g" (Spectral.residual sol)

let test_spectral_unstable_detected () =
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  match Spectral.solve q with
  | Error (Spectral.Unstable _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Spectral.pp_error e
  | Ok _ -> Alcotest.fail "expected instability"

let test_spectral_little_law () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  check_float ~tol:1e-12 "W = L/λ"
    (Spectral.mean_queue_length sol /. 4.0)
    (Spectral.mean_response_time sol)

let test_spectral_hyperexponential_repairs () =
  (* m = 2 phases on the inoperative side as well *)
  let inop = H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ] in
  let env =
    Environment.create ~servers:3 ~operative:paper_operative ~inoperative:inop
  in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-7 "n=2,m=2 spectral = mg"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  check_float ~tol:1e-8 "busy" 2.0 (Spectral.mean_busy_servers sol)

let test_spectral_three_phase_operative () =
  (* n = 3 phases exercises the general enumeration *)
  let op = H.of_pairs [ (0.5, 0.5); (0.3, 0.05); (0.2, 0.01) ] in
  let env =
    Environment.create ~servers:3 ~operative:op ~inoperative:(exp_dist 10.0)
  in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Matrix_geometric.solve q with
  | Ok mg ->
      check_float ~tol:1e-7 "n=3 spectral = mg"
        (Matrix_geometric.mean_queue_length mg)
        (Spectral.mean_queue_length sol)
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e);
  if Spectral.residual sol > 1e-9 then Alcotest.fail "residual too large"

let test_spectral_queue_quantiles () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let sol = solve_exn q in
  List.iter
    (fun p ->
      let j = Spectral.queue_length_quantile sol p in
      (* defining property of the quantile *)
      Alcotest.(check bool) "P(<=j) >= p" true
        (1.0 -. Spectral.tail_probability sol (j + 1) >= p -. 1e-12);
      if j > 0 then
        Alcotest.(check bool) "P(<=j-1) < p" true
          (1.0 -. Spectral.tail_probability sol j < p))
    [ 0.5; 0.9; 0.99 ]

let test_geometric_queue_quantiles () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  let geo =
    match Geometric.solve q with
    | Ok g -> g
    | Error e -> Alcotest.failf "geometric solve failed: %a" Geometric.pp_error e
  in
  List.iter
    (fun p ->
      let j = Geometric.queue_length_quantile geo p in
      Alcotest.(check bool) "P(<=j) >= p" true
        (1.0 -. Geometric.tail_probability geo (j + 1) >= p -. 1e-12);
      if j > 0 then
        Alcotest.(check bool) "P(<=j-1) < p" true
          (1.0 -. Geometric.tail_probability geo j < p))
    [ 0.5; 0.9; 0.999 ]

(* ---- phase-type extension (beyond the paper) ---- *)

let test_ph_env_consistent_with_h2_env () =
  (* building the environment via the general PH path must give exactly
     the paper's transition matrix for hyperexponential laws *)
  let op = H.create ~weights:[| 0.4; 0.6 |] ~rates:[| 0.5; 0.125 |] in
  let inop = exp_dist 2.0 in
  let via_h2 = Environment.create ~servers:2 ~operative:op ~inoperative:inop in
  let via_ph =
    Environment.create_ph ~servers:2
      ~operative:(Urs_prob.Phase_type.of_hyperexponential op)
      ~inoperative:(Urs_prob.Phase_type.of_hyperexponential inop)
      ()
  in
  Alcotest.(check bool) "same A" true
    (M.approx_equal
       (Environment.transition_matrix via_h2)
       (Environment.transition_matrix via_ph))

let test_ph_env_erlang_vs_truncated () =
  (* Erlang-2 operative periods: solve exactly via the PH environment
     and check against the brute-force oracle *)
  let op = Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:2 ~rate:0.1) in
  let inop =
    Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0)
  in
  let env = Environment.create_ph ~servers:3 ~operative:op ~inoperative:inop () in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  (match Truncated.solve ~levels:250 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      check_float ~tol:1e-7 "erlang-op L" (Truncated.mean_queue_length t)
        (Spectral.mean_queue_length sol));
  check_float ~tol:1e-8 "busy = λ/µ" 2.0 (Spectral.mean_busy_servers sol)

let test_ph_env_coxian_marginals () =
  (* a genuine Coxian (within-period phase transitions): the mode
     marginals must still follow the occupation-time multinomial *)
  let cox =
    Urs_prob.Phase_type.create ~alpha:[| 1.0; 0.0 |]
      ~t_matrix:(M.of_arrays [| [| -0.2; 0.15 |]; [| 0.0; -0.02 |] |])
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  let env = Environment.create_ph ~servers:3 ~operative:cox ~inoperative:inop () in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  let mm = Spectral.mode_marginals sol in
  for i = 0 to Qbd.s q - 1 do
    check_float ~tol:1e-9 "marginal"
      (Environment.stationary_mode_probability env i)
      mm.(i)
  done

let test_ph_env_rejects_defect () =
  let defective =
    Urs_prob.Phase_type.create ~alpha:[| 0.5 |]
      ~t_matrix:(M.of_arrays [| [| -1.0 |] |])
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  try
    ignore
      (Environment.create_ph ~servers:2 ~operative:defective ~inoperative:inop
         ());
    Alcotest.fail "defective initial distribution must be rejected"
  with Invalid_argument _ -> ()

(* ---- transient analysis (beyond the paper) ---- *)

let transient_exn q =
  match Transient.create ~levels:150 q with
  | Ok t -> t
  | Error e -> Alcotest.failf "transient failed: %a" Transient.pp_error e

let test_transient_relaxes_to_steady_state () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  check_float ~tol:1e-12 "L(0) = 0" 0.0
    (Transient.mean_jobs_at t ~initial:init ~time:0.0);
  check_float ~tol:1e-4 "L(∞) = steady state"
    (Spectral.mean_queue_length sol)
    (Transient.mean_jobs_at t ~initial:init ~time:400.0);
  (* from an empty start the mean queue grows towards the limit *)
  let l1 = Transient.mean_jobs_at t ~initial:init ~time:1.0 in
  let l5 = Transient.mean_jobs_at t ~initial:init ~time:5.0 in
  let l50 = Transient.mean_jobs_at t ~initial:init ~time:50.0 in
  Alcotest.(check bool) "monotone build-up" true (l1 < l5 && l5 < l50)

let test_transient_distribution_normalized () =
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:1.2 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  List.iter
    (fun time ->
      let pi = Transient.distribution_at t ~initial:init ~time in
      let total = Array.fold_left ( +. ) 0.0 pi in
      check_float ~tol:1e-9 "sums to 1" 1.0 total;
      Array.iter
        (fun p -> if p < -1e-12 then Alcotest.fail "negative probability")
        pi)
    [ 0.0; 0.5; 3.0; 25.0 ]

let test_transient_operative_relaxation () =
  (* servers start all operative and relax to N·availability *)
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  check_float ~tol:1e-9 "all operative at 0" 3.0
    (Transient.mean_operative_at t ~initial:init ~time:0.0);
  check_float ~tol:1e-3 "relaxes to N·availability"
    (Environment.mean_operative_servers env)
    (Transient.mean_operative_at t ~initial:init ~time:300.0)

let test_transient_unstable_queue_grows () =
  (* transient analysis applies to unstable queues too: from empty the
     queue keeps growing *)
  let env = paper_env ~servers:2 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  let l10 = Transient.mean_jobs_at t ~initial:init ~time:10.0 in
  let l30 = Transient.mean_jobs_at t ~initial:init ~time:30.0 in
  Alcotest.(check bool) "unbounded growth" true (l30 > l10 +. 20.0)

let test_transient_time_average () =
  (* the exact time averages over [0, t] against Simpson's rule on L(u) *)
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let t = transient_exn q in
  let init = Transient.empty_all_operative t in
  let simpson horizon =
    let k = 20 in
    let h = horizon /. float_of_int k in
    let acc = ref 0.0 in
    for i = 0 to k do
      let c = if i = 0 || i = k then 1.0 else if i land 1 = 1 then 4.0 else 2.0 in
      acc :=
        !acc
        +. c *. Transient.mean_jobs_at t ~initial:init ~time:(float_of_int i *. h)
    done;
    !acc /. (3.0 *. float_of_int k)
  in
  match Transient.mean_jobs_averages t ~initial:init ~times:[ 0.0; 1.0; 4.0 ] with
  | [ a0; a1; a4 ] ->
      check_float ~tol:1e-12 "average at 0 is L(0)" 0.0 a0;
      check_float ~tol:1e-5 "average over [0, 1]" (simpson 1.0) a1;
      check_float ~tol:1e-5 "average over [0, 4]" (simpson 4.0) a4
  | _ -> Alcotest.fail "one average per horizon"

(* ---- limited repair crews (beyond the paper) ---- *)

let crews_env ~crews =
  Environment.create_ph ~repair_crews:crews ~servers:6
    ~operative:
      (Urs_prob.Phase_type.of_hyperexponential (exp_dist 0.1))
    ~inoperative:
      (Urs_prob.Phase_type.of_hyperexponential (exp_dist 0.5))
    ()

let test_crews_match_oracle () =
  List.iter
    (fun crews ->
      let env = crews_env ~crews in
      let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
      let sol = solve_exn q in
      match Truncated.solve ~levels:300 q with
      | Error e -> Alcotest.failf "oracle failed: %a" Truncated.pp_error e
      | Ok t ->
          check_float ~tol:1e-7
            (Printf.sprintf "crews=%d" crews)
            (Truncated.mean_queue_length t)
            (Spectral.mean_queue_length sol))
    [ 1; 2; 4 ]

let test_crews_degrade_capacity () =
  (* fewer crews -> lower effective capacity -> larger queues *)
  let capacity crews = Environment.mean_operative_servers (crews_env ~crews) in
  Alcotest.(check bool) "capacity decreasing" true
    (capacity 1 < capacity 2 && capacity 2 < capacity 6);
  (* with full crews the capacity matches the independent-server formula *)
  check_float ~tol:1e-9 "unlimited = closed form" 5.0 (capacity 6);
  let l crews =
    let q = Qbd.create ~env:(crews_env ~crews) ~lambda:2.0 ~mu:1.0 in
    Spectral.mean_queue_length (solve_exn q)
  in
  Alcotest.(check bool) "L increasing as crews shrink" true
    (l 1 > l 2 && l 2 > l 6)

let test_crews_stationary_solve_consistent () =
  (* with unlimited crews the generator-solved stationary distribution
     must coincide with the multinomial closed form *)
  let env = crews_env ~crews:6 in
  let limited = crews_env ~crews:5 in
  (* limited: probabilities still sum to 1 and are nonnegative *)
  let total = ref 0.0 in
  for i = 0 to Environment.num_modes limited - 1 do
    let p = Environment.stationary_mode_probability limited i in
    if p < 0.0 then Alcotest.fail "negative stationary probability";
    total := !total +. p
  done;
  check_float ~tol:1e-9 "limited sums to 1" 1.0 !total;
  ignore env

(* ---- geometric approximation ---- *)

let geo_exn q =
  match Geometric.solve q with
  | Ok g -> g
  | Error e -> Alcotest.failf "geometric solve failed: %a" Geometric.pp_error e

let test_geometric_dominant_matches_spectral () =
  let env = paper_env ~servers:6 in
  let q = Qbd.create ~env ~lambda:5.0 ~mu:1.0 in
  let sol = solve_exn q in
  let geo = geo_exn q in
  check_float ~tol:1e-8 "z_s agreement"
    (Spectral.dominant_eigenvalue sol)
    (Geometric.dominant_eigenvalue geo)

let test_geometric_accuracy_improves_with_load () =
  (* the paper's Figure 8 claim: relative error shrinks as load → 1 *)
  let env = paper_env ~servers:10 in
  let rel_err lambda =
    let q = Qbd.create ~env ~lambda ~mu:1.0 in
    let exact = Spectral.mean_queue_length (solve_exn q) in
    let approx = Geometric.mean_queue_length (geo_exn q) in
    abs_float (approx -. exact) /. exact
  in
  let cap = Environment.mean_operative_servers env in
  let e_low = rel_err (0.90 *. cap) in
  let e_high = rel_err (0.99 *. cap) in
  Alcotest.(check bool)
    (Printf.sprintf "error shrinks: %.4f -> %.4f" e_low e_high)
    true (e_high < e_low)

let test_geometric_mode_weights () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.5 ~mu:1.0 in
  let geo = geo_exn q in
  let w = Geometric.mode_weights geo in
  check_float ~tol:1e-10 "weights sum to 1" 1.0 (V.sum w);
  (* geometric level probabilities normalize *)
  let total = ref 0.0 in
  for j = 0 to 2000 do
    total := !total +. Geometric.level_probability geo j
  done;
  check_float ~tol:1e-6 "levels normalize" 1.0 !total;
  check_float ~tol:1e-12 "L = z/(1-z)"
    (Geometric.dominant_eigenvalue geo /. (1.0 -. Geometric.dominant_eigenvalue geo))
    (Geometric.mean_queue_length geo)

let test_geometric_large_n_robust () =
  (* the exact method hits ill-conditioning at large N (paper: N ≳ 24);
     the approximation must still work *)
  let env = paper_env ~servers:30 in
  let cap = Environment.mean_operative_servers env in
  let q = Qbd.create ~env ~lambda:(0.97 *. cap) ~mu:1.0 in
  let geo = geo_exn q in
  let z = Geometric.dominant_eigenvalue geo in
  Alcotest.(check bool) "z in (0,1)" true (z > 0.0 && z < 1.0)

(* ---- matrix-geometric ---- *)

let test_mg_r_satisfies_equation () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      let r = Matrix_geometric.r_matrix mg in
      let q0 = Qbd.q0 q and q1 = Qbd.q1 q and q2 = Qbd.q2 q in
      let res =
        M.add q0 (M.add (M.mul r q1) (M.mul (M.mul r r) q2))
      in
      if M.max_abs res > 1e-10 then
        Alcotest.failf "R equation residual %g" (M.max_abs res)

let test_mg_spectral_radius_equals_zs () =
  let env = paper_env ~servers:5 in
  let q = Qbd.create ~env ~lambda:4.0 ~mu:1.0 in
  let sol = solve_exn q in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      check_float ~tol:1e-5 "sp(R) = z_s"
        (Spectral.dominant_eigenvalue sol)
        (Matrix_geometric.spectral_radius_estimate mg)

let test_mg_agreement_sweep () =
  (* spectral and matrix-geometric agree across a parameter sweep *)
  List.iter
    (fun (servers, lambda) ->
      let env = paper_env ~servers in
      let q = Qbd.create ~env ~lambda ~mu:1.0 in
      let sol = solve_exn q in
      match Matrix_geometric.solve q with
      | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
      | Ok mg ->
          let l1 = Spectral.mean_queue_length sol in
          let l2 = Matrix_geometric.mean_queue_length mg in
          if abs_float (l1 -. l2) /. l1 > 1e-7 then
            Alcotest.failf "N=%d λ=%g: %.10f vs %.10f" servers lambda l1 l2)
    [ (2, 1.0); (3, 2.5); (5, 3.0); (7, 5.0) ]

let test_mg_mode_marginals () =
  let env = paper_env ~servers:4 in
  let q = Qbd.create ~env ~lambda:3.0 ~mu:1.0 in
  match Matrix_geometric.solve q with
  | Error e -> Alcotest.failf "mg failed: %a" Matrix_geometric.pp_error e
  | Ok mg ->
      let mm = Matrix_geometric.mode_marginals mg in
      for i = 0 to Qbd.s q - 1 do
        check_float ~tol:1e-8 "marginal"
          (Environment.stationary_mode_probability env i)
          mm.(i)
      done

(* ---- truncated brute-force oracle ---- *)

let test_truncated_matches_spectral () =
  let env = paper_env ~servers:3 in
  let q = Qbd.create ~env ~lambda:2.0 ~mu:1.0 in
  let sol = solve_exn q in
  match Truncated.solve ~levels:300 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      Alcotest.(check bool) "tail mass negligible" true
        (Truncated.truncation_mass t < 1e-10);
      check_float ~tol:1e-7 "L agrees" (Spectral.mean_queue_length sol)
        (Truncated.mean_queue_length t);
      (* per-state probabilities agree too *)
      for j = 0 to 6 do
        for i = 0 to Qbd.s q - 1 do
          check_float ~tol:1e-9 "p(i,j)"
            (Spectral.probability sol ~mode:i ~jobs:j)
            (Truncated.probability t ~mode:i ~jobs:j)
        done
      done

let test_truncated_m2_repairs () =
  (* hyperexponential repairs as well: m = 2 *)
  let inop = H.of_pairs [ (0.9303, 25.0043); (0.0697, 1.6346) ] in
  let env =
    Environment.create ~servers:2 ~operative:paper_operative ~inoperative:inop
  in
  let q = Qbd.create ~env ~lambda:1.2 ~mu:1.0 in
  let sol = solve_exn q in
  match Truncated.solve ~levels:250 q with
  | Error e -> Alcotest.failf "truncated failed: %a" Truncated.pp_error e
  | Ok t ->
      check_float ~tol:1e-7 "L agrees" (Spectral.mean_queue_length sol)
        (Truncated.mean_queue_length t)

let test_truncated_refuses_large () =
  let env = paper_env ~servers:10 in
  let q = Qbd.create ~env ~lambda:8.0 ~mu:1.0 in
  match Truncated.solve ~levels:500 q with
  | Error (Truncated.Too_large _) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Truncated.pp_error e
  | Ok _ -> Alcotest.fail "expected size refusal"

(* ---- Mmc baseline ---- *)

let test_erlang_c_known_values () =
  (* M/M/1: C = ρ *)
  check_float ~tol:1e-12 "M/M/1" 0.6 (Mmc.erlang_c ~servers:1 ~offered_load:0.6);
  (* M/M/2 with a=1: C(2,1) = 1/3 *)
  check_float ~tol:1e-12 "M/M/2" (1.0 /. 3.0) (Mmc.erlang_c ~servers:2 ~offered_load:1.0)

let test_mmc_l_mm1 () =
  (* M/M/1: L = ρ/(1-ρ) *)
  check_float ~tol:1e-12 "L M/M/1" (0.75 /. 0.25)
    (Mmc.mean_queue_length ~servers:1 ~lambda:0.75 ~mu:1.0)

let test_mmc_min_servers () =
  let c = Mmc.min_servers_for_response_time ~lambda:8.0 ~mu:1.0 ~target:1.5 in
  (* must satisfy the target and be minimal *)
  Alcotest.(check bool) "meets target" true
    (Mmc.mean_response_time ~servers:c ~lambda:8.0 ~mu:1.0 <= 1.5);
  Alcotest.(check bool) "minimal" true
    (c = 9
    || Mmc.mean_response_time ~servers:(c - 1) ~lambda:8.0 ~mu:1.0 > 1.5)

(* ---- qcheck properties ---- *)

let gen_system =
  QCheck2.Gen.(
    let* servers = int_range 1 5 in
    let* util = float_range 0.3 0.9 in
    let* w1 = float_range 0.2 0.8 in
    let* r1 = float_range 0.05 0.5 in
    let* ratio = float_range 2.0 30.0 in
    let* inop_rate = float_range 5.0 50.0 in
    let op = H.of_pairs [ (w1, r1); (1.0 -. w1, r1 /. ratio) ] in
    let inop = exp_dist inop_rate in
    let env = Environment.create ~servers ~operative:op ~inoperative:inop in
    let lambda = util *. Environment.mean_operative_servers env in
    return (env, lambda))

let prop_spectral_consistency =
  QCheck2.Test.make ~name:"spectral solution self-consistent" ~count:25
    gen_system (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match Spectral.solve q with
        | Error _ -> false
        | Ok sol ->
            let busy_ok =
              abs_float (Spectral.mean_busy_servers sol -. lambda) < 1e-6
            in
            let resid_ok = Spectral.residual sol < 1e-8 in
            let l = Spectral.mean_queue_length sol in
            busy_ok && resid_ok && l >= lambda /. 1.0 -. 1e-9
      end)

let prop_spectral_equals_mg =
  QCheck2.Test.make ~name:"spectral = matrix-geometric" ~count:15 gen_system
    (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match (Spectral.solve q, Matrix_geometric.solve q) with
        | Ok a, Ok b ->
            let la = Spectral.mean_queue_length a in
            let lb = Matrix_geometric.mean_queue_length b in
            abs_float (la -. lb) /. Float.max 1.0 la < 1e-6
        | _ -> false
      end)

let prop_geometric_upper_bound_heavyish =
  QCheck2.Test.make ~name:"dominant eigenvalue in (0,1)" ~count:25 gen_system
    (fun (env, lambda) ->
      if lambda <= 0.0 then true
      else begin
        let q = Qbd.create ~env ~lambda ~mu:1.0 in
        match Geometric.solve q with
        | Error _ -> false
        | Ok geo ->
            let z = Geometric.dominant_eigenvalue geo in
            z > 0.0 && z < 1.0
      end)

(* ---- banded Q(z) against the dense kernels ---- *)

let banded_paper_q n =
  let env = paper_env ~servers:n in
  let lambda = 0.64 *. float_of_int n *. Environment.availability env in
  Qbd.create ~env ~lambda ~mu:1.0

let banded_erlang_q () =
  let op =
    Urs_prob.Phase_type.of_erlang (Urs_prob.Erlang.create ~k:2 ~rate:0.1)
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  Qbd.create
    ~env:(Environment.create_ph ~servers:3 ~operative:op ~inoperative:inop ())
    ~lambda:2.0 ~mu:1.0

let banded_coxian_q () =
  let cox =
    Urs_prob.Phase_type.create ~alpha:[| 1.0; 0.0 |]
      ~t_matrix:(M.of_arrays [| [| -0.2; 0.15 |]; [| 0.0; -0.02 |] |])
  in
  let inop = Urs_prob.Phase_type.of_hyperexponential (exp_dist 2.0) in
  Qbd.create
    ~env:(Environment.create_ph ~servers:3 ~operative:cox ~inoperative:inop ())
    ~lambda:2.0 ~mu:1.0

let banded_models () =
  List.map
    (fun n -> (Printf.sprintf "paper N=%d" n, banded_paper_q n))
    [ 1; 2; 5; 10 ]
  @ [
      ("erlang", banded_erlang_q ());
      ("coxian", banded_coxian_q ());
      ("crews", Qbd.create ~env:(crews_env ~crews:2) ~lambda:2.0 ~mu:1.0);
    ]

(* L, W, then per boundary level j < N: P(J = j) and Σ_i i·v_j(i), as
   the dense-LU solver computed them before the band kernel *)
let banded_pinned =
  [
    ( "paper N=1", 1.7778974028861441, 2.7811742711030636,
      [| 0.35998762580918209 |], [| 0.67424265937079109 |] );
    ( "paper N=2", 2.1675709522663666, 1.6953713283588283,
      [| 0.2197043753168112; 0.2808974220851882 |],
      [| 1.0419389367951375; 1.3321852256523736 |] );
    ( "paper N=5", 3.7103833421994192, 1.1608344407841242,
      [| 0.037274914784428355; 0.11914207404513594; 0.19040732742020472;
         0.20286676393937245; 0.16210664497889327 |],
      [| 0.72079763689381771; 2.3038916223545849; 3.6819757200292429;
         3.9229228676513381; 3.1348136568252674 |] );
    ( "paper N=10", 6.6459969602423241, 1.0396368047812943,
      [| 0.0016210079466698578; 0.010362478354508486; 0.033121662934551502;
         0.070578003833915062; 0.11279448668586861; 0.14421032656766597;
         0.15364682928957457; 0.14031498524516395; 0.11212244772885241;
         0.07964002499239696 |],
      [| 0.10312249285230006; 0.65922232938833636; 2.107077078451757;
         4.4899104601588231; 7.1755667147632938; 9.1741267027969027;
         9.774444117916504; 8.9263288424978029; 7.1328531748197888;
         5.0665480921120762 |] );
    ( "erlang", 3.0515773560481714, 1.5257886780240857,
      [| 0.10695142673873684; 0.21390499824341236; 0.21406369026022176 |],
      [| 0.77666767215358679; 1.5550097128177709; 1.5592088365343111 |] );
    ( "coxian", 2.964443155633901, 1.4822215778169505,
      [| 0.109164648919053; 0.21832952696111979; 0.21836573801826295 |],
      [| 0.93062349960501467; 1.8620684804189476; 1.8640312382051589 |] );
    ( "crews", 2.1639458270572236, 1.0819729135286118,
      [| 0.13045311887372632; 0.26093260466992635; 0.26129657426096142;
         0.17582287726477583; 0.091506813286198793; 0.041526656205464779 |],
      [| 0.64238499030624752; 1.2865514336980493; 1.2898042493243356;
         0.86608892511933522; 0.44485842903021761; 0.19498478037524988 |] );
  ]

let check_rel ~tol msg expected actual =
  let rel =
    abs_float (actual -. expected) /. Float.max 1e-300 (abs_float expected)
  in
  if not (rel <= tol) then
    Alcotest.failf "%s: expected %.17g, got %.17g (relative %.2e)" msg expected
      actual rel

let test_banded_left_vectors_match_dense () =
  List.iter
    (fun (name, q) ->
      let sol = solve_exn q in
      Array.iteri
        (fun k z ->
          let band = Qbd.left_null_vector q z in
          let dense = Urs_linalg.Clu.left_null_vector (Qbd.char_poly_at q z) in
          let diff =
            Urs_linalg.Cvec.norm_inf (Urs_linalg.Cvec.sub band dense)
            /. Urs_linalg.Cvec.norm_inf dense
          in
          if diff > 1e-12 then
            Alcotest.failf "%s: eigenvalue %d: band vs dense left vector %.2e"
              name k diff)
        (Spectral.eigenvalues sol))
    (banded_models ())

let test_banded_paper_bandwidth () =
  List.iter
    (fun n ->
      let q = banded_paper_q n in
      Alcotest.(check (pair int int))
        (Printf.sprintf "N=%d" n)
        (n + 1, n + 1)
        (Qbd.bandwidths q))
    [ 2; 5; 10 ]

let test_banded_solutions_match_pinned () =
  List.iter
    (fun (name, q) ->
      let l, w, levels, weighted =
        match List.find_opt (fun (n, _, _, _, _) -> n = name) banded_pinned with
        | Some (_, l, w, levels, weighted) -> (l, w, levels, weighted)
        | None -> Alcotest.failf "no pinned values for %s" name
      in
      let sol = solve_exn q in
      check_rel ~tol:1e-10 (name ^ " L") l (Spectral.mean_queue_length sol);
      check_rel ~tol:1e-10 (name ^ " W") w (Spectral.mean_response_time sol);
      Array.iteri
        (fun j v ->
          check_rel ~tol:1e-10
            (Printf.sprintf "%s P(J=%d)" name j)
            levels.(j) (V.sum v);
          let acc = ref 0.0 in
          Array.iteri (fun i p -> acc := !acc +. (float_of_int i *. p)) v;
          check_rel ~tol:1e-10
            (Printf.sprintf "%s mode-weighted level %d" name j)
            weighted.(j) !acc)
        (Spectral.boundary_vectors sol))
    (banded_models ())

let test_banded_geometric_matches_pinned () =
  let g = geo_exn (banded_paper_q 20) in
  check_rel ~tol:1e-10 "z_s" 0.64003077902788175
    (Geometric.dominant_eigenvalue g);
  check_rel ~tol:1e-10 "L" 1.7780152905835689 (Geometric.mean_queue_length g)

let test_banded_eigen_residual_matches_dense () =
  List.iter
    (fun (name, q) ->
      let zs = Spectral.eigenvalues (solve_exn q) in
      Array.iteri
        (fun k z ->
          let u = Qbd.left_null_vector q z in
          let dense =
            Urs_linalg.Cvec.norm_inf
              (Urs_linalg.Cmatrix.vec_mul u (Qbd.char_poly_at q z))
            /. Urs_linalg.Cvec.norm_inf u
          in
          let band = Qbd.eigenpair_residual q z u in
          if abs_float (band -. dense) > 1e-15 *. dense then
            Alcotest.failf "%s: eigenvalue %d: residual %.17g vs dense %.17g"
              name k band dense)
        zs;
      (* the band holds exactly the dense entries: row i is e_i·Q(z) *)
      let z = zs.(Array.length zs - 1) in
      let s = Qbd.s q in
      let dense = Qbd.char_poly_at q z and band = Qbd.char_poly_band q z in
      for i = 0 to s - 1 do
        let e = Array.init s (fun j -> if j = i then Cx.one else Cx.zero) in
        let row = Urs_linalg.Cband.vec_mul e band in
        for j = 0 to s - 1 do
          let d = Urs_linalg.Cmatrix.get dense i j in
          if Cx.re row.(j) <> Cx.re d || Cx.im row.(j) <> Cx.im d then
            Alcotest.failf "%s: Q(z) entry (%d, %d) differs from the dense one"
              name i j
        done
      done)
    (banded_models ())

let test_banded_det_matches_dense () =
  let q = banded_paper_q 6 in
  let s = Qbd.s q in
  List.iter
    (fun z ->
      let t_full = Qbd.q1 q and b = Qbd.b q and c = Qbd.q2 q in
      let dense =
        M.init s s (fun i j ->
            M.get b i j +. (z *. M.get t_full i j) +. (z *. z *. M.get c i j))
      in
      let log_det, sign = Urs_linalg.Lu.log_abs_det dense in
      let expected = float_of_int sign *. exp (log_det /. float_of_int s) in
      check_rel ~tol:1e-12 (Printf.sprintf "det at z=%g" z) expected
        (Qbd.det_q_scaled q z))
    [ 0.05; 0.3; 0.5; 0.7; 0.9; 0.99 ]

(* ---- matrix-geometric boundary in real arithmetic ---- *)

(* L, W, then P(J = j) for j = 0..N, as the matrix-geometric solver
   computed them when it lifted the boundary blocks to complex and
   factored them with the complex LU *)
let mg_complex_pinned =
  [
    ( "paper N=1", 1.7778974028841303, 2.7811742710999137,
      [| 0.35998762580937393; 0.23039505301119287 |] );
    ( "paper N=2", 2.1675709522640307, 1.6953713283570013,
      [| 0.21970437531692816; 0.28089742208533769; 0.17977668150065151 |] );
    ( "paper N=5", 3.7103833421971113, 1.1608344407834021,
      [| 0.037274914784443058; 0.11914207404518293; 0.19040732742027983; 0.20286676393945241; 0.16210664497895722; 0.10374937358408545 |] );
    ( "paper N=10", 6.6459969602403657, 1.0396368047809879,
      [| 0.0016210079466702594; 0.010362478354511056; 0.033121662934559704; 0.070578003833932534; 0.11279448668589653; 0.14421032656770166; 0.1536468292896126; 0.1403149852451987; 0.11212244772888018; 0.079640024992416694; 0.05097003484513464 |] );
    ( "erlang", 3.051577356044445, 1.5257886780222225,
      [| 0.10695142673881186; 0.21390499824356238; 0.21406369026037186; 0.14632608261729182 |] );
    ( "coxian", 2.9644431556326283, 1.4822215778163141,
      [| 0.10916464891907968; 0.21832952696117314; 0.21836573801831632; 0.14730768613226408 |] );
    ( "crews", 2.1639458270572152, 1.0819729135286076,
      [| 0.13045311887372646; 0.26093260466992668; 0.26129657426096176; 0.17582287726477602; 0.091506813286198904; 0.041526656205464835; 0.01868615849810535 |] );
  ]

let test_mg_matches_complex_path () =
  List.iter
    (fun (name, q) ->
      let l, w, levels =
        match
          List.find_opt (fun (n, _, _, _) -> n = name) mg_complex_pinned
        with
        | Some (_, l, w, levels) -> (l, w, levels)
        | None -> Alcotest.failf "no pinned values for %s" name
      in
      let mg =
        match Matrix_geometric.solve q with
        | Ok m -> m
        | Error e -> Alcotest.failf "%s: %a" name Matrix_geometric.pp_error e
      in
      check_rel ~tol:1e-10 (name ^ " L") l
        (Matrix_geometric.mean_queue_length mg);
      check_rel ~tol:1e-10 (name ^ " W") w
        (Matrix_geometric.mean_response_time mg);
      Array.iteri
        (fun j p ->
          check_rel ~tol:1e-10
            (Printf.sprintf "%s P(J=%d)" name j)
            p
            (Matrix_geometric.level_probability mg j))
        levels)
    (banded_models ())

(* ---- cross-oracle property: spectral, matrix-geometric, truncated ----

   Spectral and matrix-geometric share the boundary elimination, so the
   independent referee is the truncated chain, which shares no code with
   either. Small random models: N <= 3, exp / H2 / Erlang / Coxian
   operative periods of mean [up], exponential repairs of mean [down],
   optional repair crews, load 0.1-0.8. *)

type oracle_model = {
  servers : int;
  family : int; (* 0 exp, 1 H2, 2 Erlang-2, 3 Coxian-2 *)
  up : float;
  shape : float; (* H2 fast-phase weight; Coxian continuation *)
  down : float;
  crews : int; (* 0: one per server *)
  load : float;
}

let print_oracle_model m =
  Printf.sprintf "N=%d %s up=%g shape=%g down=%g crews=%d load=%g" m.servers
    [| "exp"; "h2"; "erlang2"; "coxian2" |].(m.family)
    m.up m.shape m.down m.crews m.load

let gen_oracle_model =
  QCheck2.Gen.(
    let* servers = int_range 1 3 in
    let* family = int_range 0 3 in
    let* up = float_range 5.0 40.0 in
    let* shape = float_range 0.2 0.8 in
    let* down = float_range 0.5 4.0 in
    let* crews = int_range 0 (servers - 1) in
    let* load = float_range 0.1 0.8 in
    return { servers; family; up; shape; down; crews; load })

let oracle_qbd m =
  let module PT = Urs_prob.Phase_type in
  let operative =
    match m.family with
    | 0 -> PT.of_hyperexponential (exp_dist (1.0 /. m.up))
    | 1 ->
        (* a quarter of the mean in the fast phase *)
        let p = m.shape in
        PT.of_hyperexponential
          (H.of_pairs
             [ (p, 4.0 *. p /. m.up); (1.0 -. p, 4.0 *. (1.0 -. p) /. (3.0 *. m.up)) ])
    | 2 -> PT.of_erlang (Urs_prob.Erlang.create ~k:2 ~rate:(2.0 /. m.up))
    | _ ->
        let a = 2.0 /. m.up and b = 2.0 *. m.shape /. m.up in
        PT.create ~alpha:[| 1.0; 0.0 |]
          ~t_matrix:(M.of_arrays [| [| -.a; a *. m.shape |]; [| 0.0; -.b |] |])
  in
  let env =
    Environment.create_ph
      ?repair_crews:(if m.crews = 0 then None else Some m.crews)
      ~servers:m.servers ~operative
      ~inoperative:(PT.of_hyperexponential (exp_dist (1.0 /. m.down)))
      ()
  in
  Qbd.create ~env ~lambda:(m.load *. Environment.mean_operative_servers env)
    ~mu:1.0

(* dense solves of the truncated chain above this are skipped *)
let oracle_state_limit = 1500

let oracle_skipped = ref 0

let prop_three_oracles_agree =
  QCheck2.Test.make ~name:"spectral = matrix-geometric = truncated" ~count:100
    ~print:print_oracle_model gen_oracle_model (fun m ->
      let q = oracle_qbd m in
      let sp = solve_exn q in
      (* P(J = j) decays like z_s^j: 1e-14 leaves the truncated level
         well under 1e-12 *)
      let levels =
        m.servers
        + int_of_float
            (ceil (log 1e-14 /. log (Spectral.dominant_eigenvalue sp)))
      in
      if Qbd.s q * (levels + 1) > oracle_state_limit then begin
        incr oracle_skipped;
        true
      end
      else begin
        let tr =
          match Truncated.solve ~levels ~state_limit:oracle_state_limit q with
          | Ok t -> t
          | Error e -> QCheck2.Test.fail_reportf "%a" Truncated.pp_error e
        in
        let mg =
          match Matrix_geometric.solve q with
          | Ok t -> t
          | Error e -> QCheck2.Test.fail_reportf "%a" Matrix_geometric.pp_error e
        in
        let agree what a b =
          if abs_float (a -. b) > 1e-8 *. Float.max 1.0 (abs_float a) then
            QCheck2.Test.fail_reportf "%s: %.17g vs %.17g" what a b
        in
        if Truncated.truncation_mass tr >= 1e-12 then
          QCheck2.Test.fail_reportf "truncation mass %.2e at %d levels"
            (Truncated.truncation_mass tr) levels;
        let l = Truncated.mean_queue_length tr in
        agree "spectral L" l (Spectral.mean_queue_length sp);
        agree "mg L" l (Matrix_geometric.mean_queue_length mg);
        let mg_mass = ref 0.0 in
        for j = 0 to levels do
          let p = Truncated.level_probability tr j in
          agree (Printf.sprintf "spectral P(J=%d)" j) p
            (Spectral.level_probability sp j);
          agree (Printf.sprintf "mg P(J=%d)" j) p
            (Matrix_geometric.level_probability mg j);
          mg_mass := !mg_mass +. Matrix_geometric.level_probability mg j
        done;
        agree "spectral mass" 0.0 (Spectral.mass_defect sp);
        agree "mg mass" 1.0 !mg_mass;
        (* Little's law on the servers: busy servers = λ/µ *)
        agree "little" (Qbd.lambda q) (Spectral.mean_busy_servers sp);
        true
      end)

let test_three_oracles_agree () =
  oracle_skipped := 0;
  QCheck2.Test.check_exn ~rand:(Random.State.make [| 15 |])
    prop_three_oracles_agree;
  (* the generator's ranges must keep most models within the dense
     budget, or the property checks little *)
  if !oracle_skipped > 25 then
    Alcotest.failf "%d of 100 random models skipped" !oracle_skipped

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_mmq"
    [
      ( "environment",
        [
          Alcotest.test_case "mode count formula (eq 12)" `Quick
            test_mode_count_formula;
          Alcotest.test_case "enumeration matches count" `Quick
            test_mode_enumeration_matches_count;
          Alcotest.test_case "ordering matches paper §3.1" `Quick
            test_mode_ordering_matches_paper;
          Alcotest.test_case "index roundtrip" `Quick test_mode_index_roundtrip;
          Alcotest.test_case "matrix A matches paper §3.1" `Quick
            test_transition_matrix_matches_paper_example;
          Alcotest.test_case "availability" `Quick test_availability;
          Alcotest.test_case "stationary probabilities sum to 1" `Quick
            test_stationary_mode_probabilities_sum_to_one;
          Alcotest.test_case "stationary satisfies balance" `Quick
            test_stationary_matches_environment_balance;
        ] );
      ( "stability",
        [ Alcotest.test_case "threshold (eq 11)" `Quick test_stability_threshold ] );
      ( "qbd",
        [
          Alcotest.test_case "block structure" `Quick test_qbd_blocks;
          Alcotest.test_case "transition blocks nonsingular" `Quick
            test_transition_block_nonsingular;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "reliable limit = M/M/c" `Quick
            test_spectral_matches_mmc_when_reliable;
          Alcotest.test_case "N=1 cross-check" `Quick
            test_spectral_mm1_with_breakdowns_closed_form;
          Alcotest.test_case "waiting-time metrics" `Quick
            test_spectral_waiting_metrics;
          Alcotest.test_case "eigenvalue count and range" `Quick
            test_spectral_eigenvalue_count_and_range;
          Alcotest.test_case "probabilities normalize" `Quick
            test_spectral_probabilities_normalize;
          Alcotest.test_case "mode marginals = multinomial" `Quick
            test_spectral_mode_marginals_match_multinomial;
          Alcotest.test_case "busy servers = λ/µ" `Quick
            test_spectral_busy_servers_identity;
          Alcotest.test_case "balance residual" `Quick test_spectral_balance_residual;
          Alcotest.test_case "instability detected" `Quick
            test_spectral_unstable_detected;
          Alcotest.test_case "little's law" `Quick test_spectral_little_law;
          Alcotest.test_case "hyperexponential repairs (m=2)" `Quick
            test_spectral_hyperexponential_repairs;
          Alcotest.test_case "three-phase operative (n=3)" `Quick
            test_spectral_three_phase_operative;
        ] );
      ( "phase-type extension",
        [
          Alcotest.test_case "PH path reproduces the paper's A" `Quick
            test_ph_env_consistent_with_h2_env;
          Alcotest.test_case "erlang operative vs oracle" `Quick
            test_ph_env_erlang_vs_truncated;
          Alcotest.test_case "coxian mode marginals" `Quick
            test_ph_env_coxian_marginals;
          Alcotest.test_case "defective alpha rejected" `Quick
            test_ph_env_rejects_defect;
        ] );
      ( "transient",
        [
          Alcotest.test_case "relaxes to steady state" `Quick
            test_transient_relaxes_to_steady_state;
          Alcotest.test_case "distribution normalized" `Quick
            test_transient_distribution_normalized;
          Alcotest.test_case "operative relaxation" `Quick
            test_transient_operative_relaxation;
          Alcotest.test_case "time average matches quadrature" `Quick
            test_transient_time_average;
          Alcotest.test_case "unstable queue grows" `Quick
            test_transient_unstable_queue_grows;
        ] );
      ( "repair crews",
        [
          Alcotest.test_case "matches oracle" `Quick test_crews_match_oracle;
          Alcotest.test_case "capacity degrades" `Quick
            test_crews_degrade_capacity;
          Alcotest.test_case "stationary distribution consistent" `Quick
            test_crews_stationary_solve_consistent;
        ] );
      ( "geometric",
        [
          Alcotest.test_case "dominant eigenvalue matches spectral" `Quick
            test_geometric_dominant_matches_spectral;
          Alcotest.test_case "accuracy improves with load (fig 8)" `Quick
            test_geometric_accuracy_improves_with_load;
          Alcotest.test_case "mode weights and normalization" `Quick
            test_geometric_mode_weights;
          Alcotest.test_case "robust at large N" `Quick test_geometric_large_n_robust;
          Alcotest.test_case "spectral queue quantiles" `Quick
            test_spectral_queue_quantiles;
          Alcotest.test_case "geometric queue quantiles" `Quick
            test_geometric_queue_quantiles;
        ] );
      ( "banded Q(z)",
        [
          Alcotest.test_case "paper bandwidth is N+1" `Quick
            test_banded_paper_bandwidth;
          Alcotest.test_case "left vectors match dense" `Quick
            test_banded_left_vectors_match_dense;
          Alcotest.test_case "solutions match pinned dense values" `Quick
            test_banded_solutions_match_pinned;
          Alcotest.test_case "geometric N=20 matches pinned" `Quick
            test_banded_geometric_matches_pinned;
          Alcotest.test_case "Q(z) band and residual match dense" `Quick
            test_banded_eigen_residual_matches_dense;
          Alcotest.test_case "det Q(z) matches dense" `Quick
            test_banded_det_matches_dense;
        ] );
      ( "matrix_geometric",
        [
          Alcotest.test_case "R satisfies its equation" `Quick
            test_mg_r_satisfies_equation;
          Alcotest.test_case "sp(R) = z_s" `Quick test_mg_spectral_radius_equals_zs;
          Alcotest.test_case "agreement sweep vs spectral" `Quick
            test_mg_agreement_sweep;
          Alcotest.test_case "mode marginals" `Quick test_mg_mode_marginals;
          Alcotest.test_case "boundary matches pinned complex path" `Quick
            test_mg_matches_complex_path;
        ] );
      ( "truncated oracle",
        [
          Alcotest.test_case "matches spectral state-by-state" `Quick
            test_truncated_matches_spectral;
          Alcotest.test_case "hyperexponential repairs" `Quick
            test_truncated_m2_repairs;
          Alcotest.test_case "refuses oversized chains" `Quick
            test_truncated_refuses_large;
        ] );
      ( "mmc",
        [
          Alcotest.test_case "erlang C known values" `Quick
            test_erlang_c_known_values;
          Alcotest.test_case "M/M/1 queue length" `Quick test_mmc_l_mm1;
          Alcotest.test_case "min servers for target" `Quick test_mmc_min_servers;
        ] );
      ( "properties",
        qc
          [
            prop_spectral_consistency;
            prop_spectral_equals_mg;
            prop_geometric_upper_bound_heavyish;
          ]
        @ [
            Alcotest.test_case "spectral = matrix-geometric = truncated"
              `Quick test_three_oracles_agree;
          ] );
    ]
