(* Tests for the probability substrate: the Pcg generator and compiled
   samplers, special functions, distributions, moment fitting, and the
   Kolmogorov–Smirnov test. *)

open Urs_prob

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let paper_h2 = Hyperexponential.of_pairs [ (0.7246, 0.1663); (0.2754, 0.0091) ]

(* ---- Pcg ---- *)

let test_pcg_determinism () =
  let a = Pcg.create 42 and b = Pcg.create 42 in
  for _ = 1 to 100 do
    if Pcg.float a <> Pcg.float b then Alcotest.fail "streams diverge"
  done

let test_pcg_seed_sensitivity () =
  let a = Pcg.create 1 and b = Pcg.create 2 in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Pcg.float a = Pcg.float b then incr same
  done;
  Alcotest.(check bool) "different seeds differ" true (!same < 5)

let test_pcg_range () =
  let g = Pcg.create 7 in
  for _ = 1 to 10_000 do
    let u = Pcg.float g in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "float out of [0,1)";
    if Pcg.bits g < 0 then Alcotest.fail "bits negative";
    let p = Pcg.float_pos g in
    if p <= 0.0 || p > 1.0 then Alcotest.fail "float_pos out of (0,1]"
  done

let test_pcg_copy () =
  let a = Pcg.create 99 in
  for _ = 1 to 10 do
    ignore (Pcg.float a)
  done;
  let b = Pcg.copy a in
  for _ = 1 to 100 do
    if Pcg.float a <> Pcg.float b then Alcotest.fail "copy diverges"
  done

let test_pcg_ks_uniform () =
  (* goodness of fit against U(0,1) with the repo's own KS machinery *)
  let g = Pcg.create 101 in
  let samples = Array.init 5000 (fun _ -> Pcg.float g) in
  let dec =
    Ks.test_samples ~significance:0.05
      ~hypothesized:(fun x -> Float.min 1.0 (Float.max 0.0 x))
      ~samples
  in
  Alcotest.(check bool) "uniform accepted" true dec.Ks.accept

let test_pcg_ks_exponential () =
  let d = Exponential.create 4.0 in
  let g = Pcg.create 103 in
  let samples = Array.init 5000 (fun _ -> Pcg.exponential g 4.0) in
  let dec =
    Ks.test_samples ~significance:0.05 ~hypothesized:(Exponential.cdf d)
      ~samples
  in
  Alcotest.(check bool) "exponential accepted" true dec.Ks.accept

let test_pcg_ks_rejects_wrong () =
  (* the KS harness must retain power on Pcg streams too *)
  let wrong = Exponential.create 2.0 in
  let g = Pcg.create 107 in
  let samples = Array.init 5000 (fun _ -> Pcg.exponential g 4.0) in
  let dec =
    Ks.test_samples ~significance:0.05 ~hypothesized:(Exponential.cdf wrong)
      ~samples
  in
  Alcotest.(check bool) "wrong rate rejected" false dec.Ks.accept

let test_pcg_split_independence () =
  (* a child stream seeded from split_seed must not track its parent *)
  let g = Pcg.create 23 in
  let h = Pcg.create (Pcg.split_seed g) in
  let same = ref 0 in
  for _ = 1 to 100 do
    if Pcg.float g = Pcg.float h then incr same
  done;
  Alcotest.(check bool) "split independent" true (!same < 5);
  (* and the split seed is a valid nonnegative seed *)
  Alcotest.(check bool) "seed nonnegative" true (Pcg.split_seed g >= 0)

let test_pcg_uniform_int_normal () =
  let g = Pcg.create 11 in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Pcg.uniform g 2.0 6.0
  done;
  check_float ~tol:0.02 "uniform(2,6) mean" 4.0 (!acc /. float_of_int n);
  let counts = Array.make 5 0 in
  for _ = 1 to n do
    let i = Pcg.int g 5 in
    if i < 0 || i >= 5 then Alcotest.fail "int out of range";
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_float ~tol:0.01 "int frequency" 0.2 (float_of_int c /. float_of_int n))
    counts;
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let z = Pcg.normal g in
    acc := !acc +. z;
    acc2 := !acc2 +. (z *. z)
  done;
  check_float ~tol:0.02 "normal mean" 0.0 (!acc /. float_of_int n);
  check_float ~tol:0.03 "normal variance" 1.0 (!acc2 /. float_of_int n)

(* ---- compiled samplers ---- *)

let test_sampler_matches_distribution_means () =
  (* every family the simulator can receive: the compiled sampler's
     sample mean must match the distribution's analytic mean *)
  let families =
    [
      ("exponential", Distribution.exponential ~rate:2.0);
      ("deterministic", Distribution.deterministic 5.0);
      ("uniform", Distribution.Uniform (Uniform_d.create ~lo:2.0 ~hi:6.0));
      ("weibull", Distribution.Weibull (Weibull.create ~shape:2.0 ~scale:1.0));
      ("lognormal", Distribution.Lognormal (Lognormal.of_mean_scv ~mean:3.0 ~scv:2.0));
      ("erlang", Distribution.Erlang (Erlang.create ~k:3 ~rate:1.5));
      ("hyperexponential", Distribution.Hyperexponential paper_h2);
      ("phase_type", Distribution.Phase_type (Phase_type.of_hyperexponential paper_h2));
    ]
  in
  List.iter
    (fun (name, d) ->
      let s = Sampler.compile d in
      let g = Pcg.create 2027 in
      let n = 200_000 in
      let acc = ref 0.0 in
      for _ = 1 to n do
        acc := !acc +. Sampler.sample s g
      done;
      let mean = Distribution.mean d in
      check_float ~tol:(0.02 *. Float.max mean 1.0) name mean
        (!acc /. float_of_int n))
    families

(* [n] draws of [d] through its compiled sampler on a fresh seeded
   stream: the one sampling path the simulator and the log generator
   share. *)
let draws ?(n = 5000) ~seed d =
  let s = Sampler.compile d and g = Pcg.create seed in
  Array.init n (fun _ -> Sampler.sample s g)

let mean_of xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let coxian ~r2 =
  Phase_type.create ~alpha:[| 1.0; 0.0 |]
    ~t_matrix:(Urs_linalg.Matrix.of_arrays [| [| -2.0; 1.5 |]; [| 0.0; -.r2 |] |])

(* KS harness over every continuous family, after the mwc-random KS
   suite: each sampler's draws must pass a one-sample KS test against
   the family's own cdf, and the same draws must fail against a
   distribution with one parameter moved, so the harness is shown to
   have power. Deterministic has no continuous cdf and is checked
   exactly in [test_deterministic]. Columns: name, distribution, the
   wrong-parameter distribution, seed. *)
let ks_families =
  let open Distribution in
  [
    ("exponential", exponential ~rate:1.5, exponential ~rate:1.8, 2029);
    ( "hyperexponential",
      Hyperexponential paper_h2,
      h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.012,
      2031 );
    ("erlang", erlang ~k:3 ~rate:1.5, erlang ~k:3 ~rate:1.8, 2033);
    ("uniform", uniform ~lo:2.0 ~hi:6.0, uniform ~lo:2.0 ~hi:6.5, 2035);
    ( "weibull",
      weibull ~shape:2.0 ~scale:1.0,
      weibull ~shape:2.0 ~scale:1.2,
      2037 );
    ( "lognormal",
      Lognormal (Lognormal.of_mean_scv ~mean:3.0 ~scv:2.0),
      Lognormal (Lognormal.of_mean_scv ~mean:3.6 ~scv:2.0),
      2043 );
    ( "coxian phase-type",
      Phase_type (coxian ~r2:0.5),
      Phase_type (coxian ~r2:0.4),
      2041 );
  ]

let ks_accepts ~seed ~hypothesized d =
  let dec =
    Ks.test_samples ~significance:0.05
      ~hypothesized:(Distribution.cdf hypothesized)
      ~samples:(draws ~seed d)
  in
  dec.Ks.accept

let sampler_ks_cases =
  List.concat_map
    (fun (name, d, wrong, seed) ->
      [
        Alcotest.test_case ("KS " ^ name) `Quick (fun () ->
            Alcotest.(check bool) "own cdf accepted" true
              (ks_accepts ~seed ~hypothesized:d d));
        Alcotest.test_case ("KS " ^ name ^ " rejects wrong parameter") `Quick
          (fun () ->
            Alcotest.(check bool) "wrong cdf rejected" false
              (ks_accepts ~seed ~hypothesized:wrong d));
      ])
    ks_families

(* ---- special functions ---- *)

let test_log_gamma () =
  check_float ~tol:1e-10 "lgamma(1)" 0.0 (Special.log_gamma 1.0);
  check_float ~tol:1e-10 "lgamma(5)" (log 24.0) (Special.log_gamma 5.0);
  check_float ~tol:1e-10 "lgamma(0.5)" (0.5 *. log Float.pi) (Special.log_gamma 0.5);
  (* recurrence Γ(x+1) = xΓ(x) *)
  let x = 3.7 in
  check_float ~tol:1e-10 "recurrence"
    (Special.log_gamma x +. log x)
    (Special.log_gamma (x +. 1.0))

let test_gamma_p () =
  (* P(1, x) = 1 - e^-x *)
  check_float ~tol:1e-12 "P(1,2)" (1.0 -. exp (-2.0)) (Special.gamma_p 1.0 2.0);
  check_float ~tol:1e-12 "P at 0" 0.0 (Special.gamma_p 2.5 0.0);
  (* monotone increasing to 1 *)
  Alcotest.(check bool) "P large x" true (Special.gamma_p 3.0 100.0 > 0.999999)

let test_erf () =
  check_float ~tol:1e-10 "erf 0" 0.0 (Special.erf 0.0);
  check_float ~tol:1e-8 "erf 1" 0.8427007929497149 (Special.erf 1.0);
  check_float ~tol:1e-10 "odd symmetry" (-.Special.erf 0.5) (Special.erf (-0.5))

let test_normal () =
  check_float ~tol:1e-10 "Phi 0" 0.5 (Special.normal_cdf 0.0);
  check_float ~tol:1e-8 "Phi 1.96" 0.9750021048517795 (Special.normal_cdf 1.96);
  check_float ~tol:1e-8 "quantile roundtrip" 1.2345
    (Special.normal_quantile (Special.normal_cdf 1.2345))

let test_beta_inc () =
  (* I_x(1,1) = x *)
  check_float ~tol:1e-12 "I(1,1)" 0.42 (Special.beta_inc ~a:1.0 ~b:1.0 0.42);
  (* symmetry I_x(a,b) = 1 - I_{1-x}(b,a) *)
  check_float ~tol:1e-10 "symmetry"
    (1.0 -. Special.beta_inc ~a:3.0 ~b:2.0 0.7)
    (Special.beta_inc ~a:2.0 ~b:3.0 0.3)

let test_kolmogorov_cdf () =
  (* K(1.3581) ≈ 0.95 and K(1.2238) ≈ 0.90 (standard table) *)
  check_float ~tol:2e-3 "95th" 0.95 (Special.kolmogorov_cdf 1.3581);
  check_float ~tol:2e-3 "90th" 0.90 (Special.kolmogorov_cdf 1.2238);
  check_float "zero below 0" 0.0 (Special.kolmogorov_cdf 0.0)

(* ---- distributions ---- *)

let test_exponential () =
  let d = Exponential.create 2.0 in
  check_float "mean" 0.5 (Exponential.mean d);
  check_float "variance" 0.25 (Exponential.variance d);
  check_float "scv" 1.0 (Exponential.scv d);
  check_float "moment 3" (6.0 /. 8.0) (Exponential.moment d 3);
  check_float "cdf" (1.0 -. exp (-1.0)) (Exponential.cdf d 0.5);
  check_float ~tol:1e-10 "quantile roundtrip" 0.7
    (Exponential.cdf d (Exponential.quantile d 0.7))

let test_hyperexponential_moments () =
  (* paper values: mean 34.62, C² = 4.6 *)
  check_float ~tol:0.01 "mean" 34.62 (Hyperexponential.mean paper_h2);
  check_float ~tol:0.05 "scv" 4.59 (Hyperexponential.scv paper_h2);
  (* eq (6): M_k = Σ k! α/ξ^k *)
  let m2 =
    2.0 *. ((0.7246 /. (0.1663 ** 2.0)) +. (0.2754 /. (0.0091 ** 2.0)))
  in
  check_float ~tol:1e-6 "M2 closed form" m2 (Hyperexponential.moment paper_h2 2)

let test_hyperexponential_cdf_pdf () =
  let d = paper_h2 in
  check_float "cdf 0" 0.0 (Hyperexponential.cdf d 0.0);
  Alcotest.(check bool) "cdf increasing" true
    (Hyperexponential.cdf d 10.0 < Hyperexponential.cdf d 50.0);
  (* pdf integrates approximately to 1 (trapezoid to large x) *)
  let integral = ref 0.0 in
  let h = 0.05 in
  for i = 0 to 80_000 do
    let x = float_of_int i *. h in
    let w = if i = 0 then 0.5 else 1.0 in
    integral := !integral +. (w *. Hyperexponential.pdf d x *. h)
  done;
  check_float ~tol:1e-3 "pdf integrates to 1" 1.0 !integral

let test_hyperexponential_sampling () =
  let xs = draws ~n:200_000 ~seed:31 (Distribution.Hyperexponential paper_h2) in
  check_float ~tol:0.5 "sample mean" (Hyperexponential.mean paper_h2) (mean_of xs)

let test_hyperexponential_validation () =
  Alcotest.check_raises "bad weights"
    (Invalid_argument "Hyperexponential.create: weights must sum to 1")
    (fun () ->
      ignore (Hyperexponential.create ~weights:[| 0.5; 0.2 |] ~rates:[| 1.0; 2.0 |]));
  Alcotest.check_raises "bad rates"
    (Invalid_argument "Hyperexponential.create: rates must be positive")
    (fun () ->
      ignore (Hyperexponential.create ~weights:[| 0.5; 0.5 |] ~rates:[| 1.0; -2.0 |]))

let test_erlang () =
  let d = Erlang.create ~k:3 ~rate:1.5 in
  check_float "mean" 2.0 (Erlang.mean d);
  check_float "scv" (1.0 /. 3.0) (Erlang.scv d);
  check_float ~tol:1e-9 "moment 1 = mean" (Erlang.mean d) (Erlang.moment d 1);
  check_float ~tol:1e-9 "moment 2" (Erlang.variance d +. (2.0 *. 2.0)) (Erlang.moment d 2);
  check_float ~tol:1e-9 "cdf at 0" 0.0 (Erlang.cdf d 0.0);
  let xs = draws ~n:100_000 ~seed:37 (Distribution.Erlang d) in
  check_float ~tol:0.02 "sample mean" 2.0 (mean_of xs)

let test_deterministic () =
  let d = Deterministic.create 5.0 in
  check_float "mean" 5.0 (Deterministic.mean d);
  check_float "scv" 0.0 (Deterministic.scv d);
  check_float "cdf below" 0.0 (Deterministic.cdf d 4.999);
  check_float "cdf at" 1.0 (Deterministic.cdf d 5.0);
  Array.iter (check_float "sample" 5.0)
    (draws ~n:10 ~seed:1 (Distribution.Deterministic d))

let test_uniform () =
  let d = Uniform_d.create ~lo:2.0 ~hi:6.0 in
  check_float "mean" 4.0 (Uniform_d.mean d);
  check_float "variance" (16.0 /. 12.0) (Uniform_d.variance d);
  check_float "moment 2 consistency"
    (Uniform_d.variance d +. 16.0)
    (Uniform_d.moment d 2);
  check_float "cdf mid" 0.5 (Uniform_d.cdf d 4.0)

let test_weibull () =
  (* shape 1 is exponential *)
  let d = Weibull.create ~shape:1.0 ~scale:2.0 in
  check_float ~tol:1e-9 "mean" 2.0 (Weibull.mean d);
  check_float ~tol:1e-9 "scv" 1.0 (Weibull.scv d);
  let d2 = Weibull.create ~shape:2.0 ~scale:1.0 in
  check_float ~tol:1e-9 "mean shape 2" (sqrt Float.pi /. 2.0) (Weibull.mean d2);
  let xs = draws ~n:100_000 ~seed:41 (Distribution.Weibull d2) in
  check_float ~tol:0.01 "sample mean" (Weibull.mean d2) (mean_of xs)

let test_lognormal () =
  let d = Lognormal.of_mean_scv ~mean:3.0 ~scv:2.0 in
  check_float ~tol:1e-9 "mean" 3.0 (Lognormal.mean d);
  check_float ~tol:1e-9 "scv" 2.0 (Lognormal.scv d);
  check_float ~tol:1e-8 "quantile roundtrip" 0.9
    (Lognormal.cdf d (Lognormal.quantile d 0.9))

let test_distribution_dispatch () =
  let d = Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091 in
  check_float ~tol:0.01 "mean" 34.62 (Distribution.mean d);
  (match Distribution.as_hyperexponential d with
  | Some h -> check_float "phases" 2.0 (float_of_int (Hyperexponential.phases h))
  | None -> Alcotest.fail "expected hyperexponential");
  (match Distribution.as_hyperexponential (Distribution.exponential ~rate:2.0) with
  | Some h ->
      check_float "1-phase" 1.0 (float_of_int (Hyperexponential.phases h));
      check_float "mean preserved" 0.5 (Hyperexponential.mean h)
  | None -> Alcotest.fail "exponential should embed");
  (match Distribution.as_hyperexponential (Distribution.deterministic 1.0) with
  | Some _ -> Alcotest.fail "deterministic is not phase-type here"
  | None -> ())

(* ---- fitting ---- *)

let test_fit_three_moments_recovers_paper () =
  let m k = Hyperexponential.moment paper_h2 k in
  match Fit.h2_of_three_moments ~m1:(m 1) ~m2:(m 2) ~m3:(m 3) with
  | Error e -> Alcotest.failf "fit failed: %a" Fit.pp_error e
  | Ok fit ->
      let w = Hyperexponential.weights fit and r = Hyperexponential.rates fit in
      check_float ~tol:1e-6 "w1" 0.7246 w.(0);
      check_float ~tol:1e-6 "r1" 0.1663 r.(0);
      check_float ~tol:1e-6 "w2" 0.2754 w.(1);
      check_float ~tol:1e-6 "r2" 0.0091 r.(1)

let test_fit_rejects_low_scv () =
  (* Erlang-2 moments: scv = 0.5 < 1 *)
  let d = Erlang.create ~k:2 ~rate:1.0 in
  match
    Fit.h2_of_three_moments ~m1:(Erlang.moment d 1) ~m2:(Erlang.moment d 2)
      ~m3:(Erlang.moment d 3)
  with
  | Error `Scv_too_low -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Fit.pp_error e
  | Ok _ -> Alcotest.fail "expected failure"

let test_fit_mean_scv () =
  match Fit.h2_of_mean_scv ~mean:10.0 ~scv:4.0 with
  | Error e -> Alcotest.failf "fit failed: %a" Fit.pp_error e
  | Ok fit ->
      check_float ~tol:1e-9 "mean" 10.0 (Hyperexponential.mean fit);
      check_float ~tol:1e-9 "scv" 4.0 (Hyperexponential.scv fit)

let test_fit_mean_scv_exponential_limit () =
  match Fit.h2_of_mean_scv ~mean:5.0 ~scv:1.0 with
  | Error e -> Alcotest.failf "fit failed: %a" Fit.pp_error e
  | Ok fit ->
      check_float ~tol:1e-9 "mean" 5.0 (Hyperexponential.mean fit);
      check_float ~tol:1e-6 "scv" 1.0 (Hyperexponential.scv fit)

let test_fit_pinned_rate_protocol () =
  (* Figure 6: at the fitted distribution's own scv the pinned-rate fit
     must reproduce it exactly *)
  let mean = Hyperexponential.mean paper_h2 in
  let scv = Hyperexponential.scv paper_h2 in
  (match Fit.h2_of_mean_scv_pinned_rate ~mean ~scv ~pinned_rate:0.1663 with
  | Error e -> Alcotest.failf "fit failed: %a" Fit.pp_error e
  | Ok fit ->
      check_float ~tol:1e-6 "mean" mean (Hyperexponential.mean fit);
      check_float ~tol:1e-6 "scv" scv (Hyperexponential.scv fit);
      let r = Hyperexponential.rates fit in
      (* the varied phase must be the paper's long phase *)
      check_float ~tol:1e-6 "recovered long rate" 0.0091 r.(0));
  (* across the Figure 6 sweep the fit hits every requested (mean, scv) *)
  List.iter
    (fun scv ->
      match Fit.h2_of_mean_scv_pinned_rate ~mean ~scv ~pinned_rate:0.1663 with
      | Error e -> Alcotest.failf "scv=%g failed: %a" scv Fit.pp_error e
      | Ok fit ->
          check_float ~tol:1e-6 "sweep mean" mean (Hyperexponential.mean fit);
          check_float ~tol:1e-5 "sweep scv" scv (Hyperexponential.scv fit))
    [ 1.0; 2.0; 4.0; 8.0; 12.0; 18.0 ]

let test_fit_gauss_seidel () =
  let m k = Hyperexponential.moment paper_h2 k in
  match Fit.h2_gauss_seidel ~m1:(m 1) ~m2:(m 2) ~m3:(m 3) () with
  | Error e -> Alcotest.failf "gauss-seidel failed: %a" Fit.pp_error e
  | Ok (fit, iters) ->
      Alcotest.(check bool) "few iterations" true (iters < 10_000);
      check_float ~tol:1e-5 "w1" 0.7246 (Hyperexponential.weights fit).(0);
      check_float ~tol:1e-5 "r1" 0.1663 (Hyperexponential.rates fit).(0)

let test_fit_brute_force () =
  let m k = Hyperexponential.moment paper_h2 k in
  match Fit.hn_of_moments ~n:2 ~moments:[| m 1; m 2; m 3 |] with
  | Error e -> Alcotest.failf "brute force failed: %a" Fit.pp_error e
  | Ok (fit, obj) ->
      Alcotest.(check bool) "objective small" true (obj < 1e-6);
      check_float ~tol:1e-3 "mean" (m 1) (Hyperexponential.moment fit 1);
      check_float ~tol:(0.01 *. m 2) "m2" (m 2) (Hyperexponential.moment fit 2)

let test_fit_exponential_of_mean () =
  let e = Fit.exponential_of_mean 0.04 in
  check_float "rate" 25.0 (Exponential.rate e)

(* ---- Phase-type distributions ---- *)

let test_ph_embeds_hyperexponential () =
  let ph = Phase_type.of_hyperexponential paper_h2 in
  check_float ~tol:1e-9 "mean" (Hyperexponential.mean paper_h2) (Phase_type.mean ph);
  check_float ~tol:1e-9 "scv" (Hyperexponential.scv paper_h2) (Phase_type.scv ph);
  check_float ~tol:1e-9 "moment 3" (Hyperexponential.moment paper_h2 3)
    (Phase_type.moment ph 3);
  List.iter
    (fun x ->
      check_float ~tol:1e-9 "cdf" (Hyperexponential.cdf paper_h2 x)
        (Phase_type.cdf ph x);
      check_float ~tol:1e-9 "pdf" (Hyperexponential.pdf paper_h2 x)
        (Phase_type.pdf ph x))
    [ 0.5; 5.0; 30.0; 100.0 ]

let test_ph_embeds_erlang () =
  let e = Erlang.create ~k:4 ~rate:2.0 in
  let ph = Phase_type.of_erlang e in
  check_float ~tol:1e-9 "mean" (Erlang.mean e) (Phase_type.mean ph);
  check_float ~tol:1e-9 "scv" (Erlang.scv e) (Phase_type.scv ph);
  check_float ~tol:1e-9 "cdf" (Erlang.cdf e 1.7) (Phase_type.cdf ph 1.7)

let test_ph_validation () =
  (* positive diagonal rejected *)
  (try
     ignore
       (Phase_type.create ~alpha:[| 1.0 |]
          ~t_matrix:(Urs_linalg.Matrix.of_arrays [| [| 1.0 |] |]));
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ());
  (* alpha mass > 1 rejected *)
  (try
     ignore
       (Phase_type.create ~alpha:[| 0.7; 0.7 |]
          ~t_matrix:
            (Urs_linalg.Matrix.of_arrays
               [| [| -1.0; 0.0 |]; [| 0.0; -2.0 |] |]));
     Alcotest.fail "expected rejection"
   with Invalid_argument _ -> ())

let test_ph_coxian_sampling () =
  (* a genuine 2-phase Coxian (off-diagonal transition): sample mean
     must match the analytical mean *)
  let ph = coxian ~r2:0.5 in
  let xs = draws ~n:200_000 ~seed:57 (Distribution.Phase_type ph) in
  check_float ~tol:0.03 "coxian sample mean" (Phase_type.mean ph) (mean_of xs);
  (* quantile inverts cdf *)
  check_float ~tol:1e-6 "quantile roundtrip" 0.8
    (Phase_type.cdf ph (Phase_type.quantile ph 0.8))

let test_ph_defect () =
  (* initial mass 0.5 absorbs immediately: cdf(0) = 0.5 *)
  let ph =
    Phase_type.create ~alpha:[| 0.5 |]
      ~t_matrix:(Urs_linalg.Matrix.of_arrays [| [| -1.0 |] |])
  in
  check_float ~tol:1e-12 "defect" 0.5 (Phase_type.cdf ph 0.0);
  check_float ~tol:1e-9 "mean halves" 0.5 (Phase_type.mean ph);
  (* the sampler absorbs the defect mass at once: half the draws are 0 *)
  let xs = draws ~n:100_000 ~seed:59 (Distribution.Phase_type ph) in
  let zeros = Array.fold_left (fun n x -> if x = 0.0 then n + 1 else n) 0 xs in
  check_float ~tol:0.01 "share of zero draws" 0.5
    (float_of_int zeros /. float_of_int (Array.length xs));
  check_float ~tol:0.01 "sample mean" 0.5 (mean_of xs)

let test_ph_distribution_roundtrip () =
  (* a diagonal PH with full mass converts back to a hyperexponential *)
  let ph = Distribution.Phase_type (Phase_type.of_hyperexponential paper_h2) in
  match Distribution.as_hyperexponential ph with
  | Some h ->
      check_float ~tol:1e-9 "roundtrip mean" (Hyperexponential.mean paper_h2)
        (Hyperexponential.mean h)
  | None -> Alcotest.fail "diagonal PH should convert"

(* ---- Kolmogorov–Smirnov ---- *)

let test_ks_critical_values_match_paper () =
  (* the paper quotes 0.19 (5%) and 0.23 (1%) for 50 points, 0.21/0.19
     for 40 points at 5%/10% *)
  check_float ~tol:5e-3 "n=50 5%" 0.192
    (Ks.critical_value ~n:50 ~significance:0.05);
  check_float ~tol:5e-3 "n=50 1%" 0.230
    (Ks.critical_value ~n:50 ~significance:0.01);
  check_float ~tol:5e-3 "n=50 10%" 0.173
    (Ks.critical_value ~n:50 ~significance:0.10);
  check_float ~tol:5e-3 "n=40 5%" 0.215
    (Ks.critical_value ~n:40 ~significance:0.05);
  check_float ~tol:5e-3 "n=40 10%" 0.193
    (Ks.critical_value ~n:40 ~significance:0.10)

let test_ks_accepts_own_distribution () =
  let d = Exponential.create 1.0 in
  let samples = draws ~n:2000 ~seed:43 (Distribution.Exponential d) in
  let dec =
    Ks.test_samples ~significance:0.05 ~hypothesized:(Exponential.cdf d) ~samples
  in
  Alcotest.(check bool) "accepted" true dec.Ks.accept

let test_ks_rejects_wrong_distribution () =
  let d = Exponential.create 1.0 in
  let wrong = Exponential.create 2.0 in
  let samples = draws ~n:2000 ~seed:47 (Distribution.Exponential d) in
  let dec =
    Ks.test_samples ~significance:0.05 ~hypothesized:(Exponential.cdf wrong)
      ~samples
  in
  Alcotest.(check bool) "rejected" false dec.Ks.accept

let test_ks_statistic_points () =
  (* hand-computable: two points with known deviations *)
  let hypothesized x = x in
  let points = [| (0.3, 0.4); (0.8, 0.7) |] in
  check_float "D" 0.1 (Ks.statistic_points ~hypothesized ~points)

(* ---- Optim ---- *)

let test_nelder_mead_quadratic () =
  let f x = ((x.(0) -. 3.0) ** 2.0) +. ((x.(1) +. 1.0) ** 2.0) in
  let r = Optim.nelder_mead f [| 0.0; 0.0 |] in
  check_float ~tol:1e-4 "x0" 3.0 r.Optim.x.(0);
  check_float ~tol:1e-4 "x1" (-1.0) r.Optim.x.(1);
  Alcotest.(check bool) "converged" true r.Optim.converged

let test_nelder_mead_rosenbrock () =
  let f x =
    let a = 1.0 -. x.(0) and b = x.(1) -. (x.(0) *. x.(0)) in
    (a *. a) +. (100.0 *. b *. b)
  in
  let r = Optim.nelder_mead ~max_iter:10_000 f [| -1.2; 1.0 |] in
  check_float ~tol:1e-3 "rosenbrock x" 1.0 r.Optim.x.(0);
  check_float ~tol:1e-3 "rosenbrock y" 1.0 r.Optim.x.(1)

(* ---- qcheck properties ---- *)

let gen_h2 =
  QCheck2.Gen.(
    let* w1 = float_range 0.05 0.95 in
    let* r1 = float_range 0.01 10.0 in
    let* ratio = float_range 1.5 100.0 in
    return (Hyperexponential.of_pairs [ (w1, r1); (1.0 -. w1, r1 /. ratio) ]))

let prop_h2_scv_at_least_one =
  QCheck2.Test.make ~name:"hyperexponential scv >= 1" ~count:200 gen_h2
    (fun d -> Hyperexponential.scv d >= 1.0 -. 1e-9)

let prop_h2_cdf_monotone =
  QCheck2.Test.make ~name:"hyperexponential cdf monotone" ~count:100
    QCheck2.Gen.(pair gen_h2 (pair (float_range 0.0 50.0) (float_range 0.0 50.0)))
    (fun (d, (a, b)) ->
      let lo = Float.min a b and hi = Float.max a b in
      Hyperexponential.cdf d lo <= Hyperexponential.cdf d hi +. 1e-12)

let prop_fit_roundtrip =
  QCheck2.Test.make ~name:"3-moment fit roundtrip" ~count:100 gen_h2 (fun d ->
      let m k = Hyperexponential.moment d k in
      match Fit.h2_of_three_moments ~m1:(m 1) ~m2:(m 2) ~m3:(m 3) with
      | Error _ -> false
      | Ok fit ->
          let rel a b = abs_float (a -. b) /. b in
          rel (Hyperexponential.moment fit 1) (m 1) < 1e-6
          && rel (Hyperexponential.moment fit 2) (m 2) < 1e-6
          && rel (Hyperexponential.moment fit 3) (m 3) < 1e-6)

let prop_quantile_inverse =
  QCheck2.Test.make ~name:"quantile inverts cdf" ~count:100
    QCheck2.Gen.(pair gen_h2 (float_range 0.01 0.99))
    (fun (d, p) ->
      abs_float (Hyperexponential.cdf d (Hyperexponential.quantile d p) -. p)
      < 1e-6)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "urs_prob"
    [
      ( "pcg",
        [
          Alcotest.test_case "determinism" `Quick test_pcg_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_pcg_seed_sensitivity;
          Alcotest.test_case "range" `Quick test_pcg_range;
          Alcotest.test_case "copy" `Quick test_pcg_copy;
          Alcotest.test_case "KS uniform" `Quick test_pcg_ks_uniform;
          Alcotest.test_case "KS exponential" `Quick test_pcg_ks_exponential;
          Alcotest.test_case "KS rejects wrong rate" `Quick
            test_pcg_ks_rejects_wrong;
          Alcotest.test_case "split independence" `Quick
            test_pcg_split_independence;
          Alcotest.test_case "uniform/int/normal draws" `Quick
            test_pcg_uniform_int_normal;
        ] );
      ( "sampler",
        Alcotest.test_case "matches distribution means" `Slow
          test_sampler_matches_distribution_means
        :: sampler_ks_cases );
      ( "special",
        [
          Alcotest.test_case "log gamma" `Quick test_log_gamma;
          Alcotest.test_case "incomplete gamma" `Quick test_gamma_p;
          Alcotest.test_case "erf" `Quick test_erf;
          Alcotest.test_case "normal cdf/quantile" `Quick test_normal;
          Alcotest.test_case "incomplete beta" `Quick test_beta_inc;
          Alcotest.test_case "kolmogorov cdf" `Quick test_kolmogorov_cdf;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "exponential" `Quick test_exponential;
          Alcotest.test_case "hyperexponential moments" `Quick
            test_hyperexponential_moments;
          Alcotest.test_case "hyperexponential cdf/pdf" `Quick
            test_hyperexponential_cdf_pdf;
          Alcotest.test_case "hyperexponential sampling" `Quick
            test_hyperexponential_sampling;
          Alcotest.test_case "hyperexponential validation" `Quick
            test_hyperexponential_validation;
          Alcotest.test_case "erlang" `Quick test_erlang;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "weibull" `Quick test_weibull;
          Alcotest.test_case "lognormal" `Quick test_lognormal;
          Alcotest.test_case "dispatch and phase-type view" `Quick
            test_distribution_dispatch;
        ] );
      ( "fit",
        [
          Alcotest.test_case "3-moment fit recovers paper parameters" `Quick
            test_fit_three_moments_recovers_paper;
          Alcotest.test_case "rejects scv < 1" `Quick test_fit_rejects_low_scv;
          Alcotest.test_case "mean/scv fit" `Quick test_fit_mean_scv;
          Alcotest.test_case "mean/scv exponential limit" `Quick
            test_fit_mean_scv_exponential_limit;
          Alcotest.test_case "figure-6 pinned-rate protocol" `Quick
            test_fit_pinned_rate_protocol;
          Alcotest.test_case "gauss-seidel iteration" `Quick test_fit_gauss_seidel;
          Alcotest.test_case "brute-force search" `Quick test_fit_brute_force;
          Alcotest.test_case "exponential of mean" `Quick
            test_fit_exponential_of_mean;
        ] );
      ( "phase_type",
        [
          Alcotest.test_case "embeds hyperexponential" `Quick
            test_ph_embeds_hyperexponential;
          Alcotest.test_case "embeds erlang" `Quick test_ph_embeds_erlang;
          Alcotest.test_case "validation" `Quick test_ph_validation;
          Alcotest.test_case "coxian sampling" `Quick test_ph_coxian_sampling;
          Alcotest.test_case "initial defect" `Quick test_ph_defect;
          Alcotest.test_case "distribution roundtrip" `Quick
            test_ph_distribution_roundtrip;
        ] );
      ( "ks",
        [
          Alcotest.test_case "critical values match paper table" `Quick
            test_ks_critical_values_match_paper;
          Alcotest.test_case "accepts true distribution" `Quick
            test_ks_accepts_own_distribution;
          Alcotest.test_case "rejects wrong distribution" `Quick
            test_ks_rejects_wrong_distribution;
          Alcotest.test_case "statistic on points" `Quick test_ks_statistic_points;
        ] );
      ( "optim",
        [
          Alcotest.test_case "quadratic bowl" `Quick test_nelder_mead_quadratic;
          Alcotest.test_case "rosenbrock" `Quick test_nelder_mead_rosenbrock;
        ] );
      ( "properties",
        qc
          [
            prop_h2_scv_at_least_one;
            prop_h2_cdf_monotone;
            prop_fit_roundtrip;
            prop_quantile_inverse;
          ] );
    ]
