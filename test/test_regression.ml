(* Golden-value regression tests: pin the reproduced paper results so
   that any future numerical drift is caught. The golden numbers were
   produced by this implementation and cross-checked against the
   paper's reported values (see EXPERIMENTS.md). *)

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let paper_model ~servers ~lambda =
  Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
    ~operative:Urs.Model.paper_operative
    ~inoperative:Urs.Model.paper_inoperative_exp ()

let solve ~servers ~lambda = Urs.Solver.evaluate_exn (paper_model ~servers ~lambda)

let test_golden_queue_lengths () =
  (* spot values across the size range used by the figures *)
  check_float ~tol:1e-5 "N=5 λ=4" 6.23850 (solve ~servers:5 ~lambda:4.0).Urs.Solver.mean_jobs;
  check_float ~tol:1e-4 "N=10 λ=8" 9.6568 (solve ~servers:10 ~lambda:8.0).Urs.Solver.mean_jobs;
  check_float ~tol:1e-4 "N=12 λ=8" 8.2835 (solve ~servers:12 ~lambda:8.0).Urs.Solver.mean_jobs;
  check_float ~tol:1e-4 "N=17 λ=8" 8.0037 (solve ~servers:17 ~lambda:8.0).Urs.Solver.mean_jobs

let test_golden_dominant_eigenvalue () =
  let p = solve ~servers:10 ~lambda:8.0 in
  match p.Urs.Solver.dominant_eigenvalue with
  | Some z -> check_float ~tol:1e-5 "z_s at N=10 λ=8" 0.80095 z
  | None -> Alcotest.fail "missing eigenvalue"

let test_golden_figure5_costs () =
  (* the cost minima underpinning Figure 5's optima *)
  let cost lambda n =
    let p = solve ~servers:n ~lambda in
    Urs.Cost.of_performance Urs.Cost.paper_params ~servers:n p
  in
  check_float ~tol:0.01 "λ=7 N=11" 39.86 (cost 7.0 11);
  check_float ~tol:0.01 "λ=8 N=12" 45.13 (cost 8.0 12);
  check_float ~tol:0.01 "λ=8.5 N=13" 47.85 (cost 8.5 13)

let test_golden_figure5_optima () =
  List.iter
    (fun (lambda, expected) ->
      match
        Urs.Cost.optimal_servers ~n_max:25 (paper_model ~servers:10 ~lambda)
          Urs.Cost.paper_params
      with
      | Ok (n, _) -> Alcotest.(check int) (Printf.sprintf "λ=%.1f" lambda) expected n
      | Error e -> Alcotest.failf "λ=%.1f failed: %a" lambda Urs.Solver.pp_error e)
    [ (7.0, 11); (8.0, 12); (8.5, 13) ]

let test_golden_figure9 () =
  check_float ~tol:1e-3 "W at N=8" 2.6519
    (solve ~servers:8 ~lambda:7.5).Urs.Solver.mean_response;
  check_float ~tol:1e-3 "W at N=9" 1.3437
    (solve ~servers:9 ~lambda:7.5).Urs.Solver.mean_response;
  match
    Urs.Capacity.min_servers_for_response (paper_model ~servers:8 ~lambda:7.5)
      ~target:1.5
  with
  | Ok (n, _) -> Alcotest.(check int) "min N for W<=1.5" 9 n
  | Error e -> Alcotest.failf "capacity failed: %a" Urs.Solver.pp_error e

let test_golden_figure7_endpoints () =
  (* exponential vs H2 operative periods at 1/η = 5 (the figure's right
     edge, where the models diverge most) *)
  let h2 =
    Urs.Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:(Urs_prob.Distribution.exponential ~rate:0.2) ()
  in
  let expo =
    Urs.Model.create ~servers:10 ~arrival_rate:8.0 ~service_rate:1.0
      ~operative:(Urs_prob.Distribution.exponential ~rate:0.0289)
      ~inoperative:(Urs_prob.Distribution.exponential ~rate:0.2) ()
  in
  check_float ~tol:5e-3 "H2 operative" 24.488
    (Urs.Solver.evaluate_exn h2).Urs.Solver.mean_jobs;
  check_float ~tol:5e-3 "exp operative" 20.329
    (Urs.Solver.evaluate_exn expo).Urs.Solver.mean_jobs

let test_golden_section2_decisions () =
  (* the synthetic log is deterministic (seed 2006): the KS statistics
     are exactly reproducible *)
  let events = Urs_dataset.Generate.generate Urs_dataset.Generate.default in
  match Urs_dataset.Pipeline.analyze events with
  | Error e -> Alcotest.failf "pipeline failed: %a" Urs_prob.Fit.pp_error e
  | Ok r ->
      let op = r.Urs_dataset.Pipeline.operative in
      check_float ~tol:1e-3 "operative exp D" 0.4719
        op.Urs_dataset.Pipeline.exponential_ks.Urs_prob.Ks.statistic;
      check_float ~tol:1e-3 "operative H2 D" 0.1066
        op.Urs_dataset.Pipeline.h2_ks.Urs_prob.Ks.statistic;
      Alcotest.(check bool) "exponential rejected at 5%" false
        op.Urs_dataset.Pipeline.exponential_ks.Urs_prob.Ks.accept;
      Alcotest.(check bool) "H2 accepted at 5%" true
        op.Urs_dataset.Pipeline.h2_ks.Urs_prob.Ks.accept;
      Alcotest.(check int) "anomalies" 4979 r.Urs_dataset.Pipeline.cleaned.Urs_dataset.Clean.anomalies

let test_solver_determinism () =
  let a = solve ~servers:7 ~lambda:5.5 in
  let b = solve ~servers:7 ~lambda:5.5 in
  check_float "deterministic L" a.Urs.Solver.mean_jobs b.Urs.Solver.mean_jobs;
  match (a.Urs.Solver.dominant_eigenvalue, b.Urs.Solver.dominant_eigenvalue) with
  | Some x, Some y -> check_float "deterministic z_s" x y
  | _ -> Alcotest.fail "missing eigenvalues"

let () =
  Alcotest.run "urs_regression"
    [
      ( "golden values",
        [
          Alcotest.test_case "queue lengths" `Quick test_golden_queue_lengths;
          Alcotest.test_case "dominant eigenvalue" `Quick
            test_golden_dominant_eigenvalue;
          Alcotest.test_case "figure 5 costs" `Quick test_golden_figure5_costs;
          Alcotest.test_case "figure 5 optima" `Slow test_golden_figure5_optima;
          Alcotest.test_case "figure 9" `Quick test_golden_figure9;
          Alcotest.test_case "figure 7 endpoints" `Quick
            test_golden_figure7_endpoints;
          Alcotest.test_case "section 2 decisions" `Slow
            test_golden_section2_decisions;
          Alcotest.test_case "solver determinism" `Quick test_solver_determinism;
        ] );
    ]
