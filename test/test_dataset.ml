(* Tests for the synthetic breakdown-log substrate and the Section-2
   analysis pipeline. *)

open Urs_dataset

let check_float ?(tol = 1e-9) msg expected actual =
  if abs_float (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let small_config =
  {
    Generate.default with
    Generate.rows = 20_000;
    servers = 50;
    seed = 7;
  }

(* ---- Event ---- *)

let test_event_derivation () =
  let e =
    {
      Event.server_id = 3;
      event_time = 100.0;
      outage_duration = 2.0;
      time_between_events = 12.0;
    }
  in
  check_float "operative period" 10.0 (Event.operative_period e);
  Alcotest.(check bool) "not anomalous" false (Event.is_anomalous e);
  let bad = { e with Event.time_between_events = 1.0 } in
  Alcotest.(check bool) "anomalous" true (Event.is_anomalous bad)

(* ---- Generate ---- *)

let test_generate_row_count () =
  let events = Generate.generate small_config in
  Alcotest.(check int) "rows" 20_000 (Array.length events)

let test_generate_deterministic () =
  let a = Generate.generate small_config in
  let b = Generate.generate small_config in
  Alcotest.(check bool) "same seed, same log" true (a = b);
  let c = Generate.generate { small_config with Generate.seed = 8 } in
  Alcotest.(check bool) "different seed differs" true (a <> c)

let test_generate_anomaly_fraction () =
  let events = Generate.generate small_config in
  let cleaned = Clean.clean events in
  check_float ~tol:0.01 "anomaly fraction" 0.035 (Clean.anomaly_fraction cleaned)

let test_generate_event_times_increase_per_server () =
  let events = Generate.generate small_config in
  let last = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      (match Hashtbl.find_opt last e.Event.server_id with
      | Some t ->
          if e.Event.event_time <= t then
            Alcotest.fail "per-server event times must increase"
      | None -> ());
      Hashtbl.replace last e.Event.server_id e.Event.event_time)
    events

(* ---- Clean ---- *)

let test_clean_removes_anomalies () =
  let events = Generate.generate small_config in
  let cleaned = Clean.clean events in
  Alcotest.(check int) "total" 20_000 cleaned.Clean.total;
  Alcotest.(check int) "ops = inops"
    (Array.length cleaned.Clean.operative_periods)
    (Array.length cleaned.Clean.inoperative_periods);
  Alcotest.(check int) "ops + anomalies = total" 20_000
    (Array.length cleaned.Clean.operative_periods + cleaned.Clean.anomalies);
  Array.iter
    (fun p -> if p < 0.0 then Alcotest.fail "negative operative period")
    cleaned.Clean.operative_periods

let test_clean_recovers_means () =
  let events = Generate.generate { small_config with Generate.rows = 60_000 } in
  let cleaned = Clean.clean events in
  let op_mean = Urs_stats.Empirical.mean cleaned.Clean.operative_periods in
  let inop_mean = Urs_stats.Empirical.mean cleaned.Clean.inoperative_periods in
  (* ground truth: 34.62 and 0.0797 *)
  check_float ~tol:1.0 "operative mean" 34.62 op_mean;
  check_float ~tol:0.01 "inoperative mean" 0.0797 inop_mean

(* ---- Csv ---- *)

let test_csv_roundtrip_string () =
  let events = Generate.generate { small_config with Generate.rows = 500 } in
  let s = Csv.to_string events in
  let back = Csv.of_string s in
  Alcotest.(check bool) "roundtrip" true (events = back)

let test_csv_roundtrip_file () =
  let events = Generate.generate { small_config with Generate.rows = 200 } in
  let path = Filename.temp_file "urs_test" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Csv.write path events;
      let back = Csv.read path in
      Alcotest.(check bool) "file roundtrip" true (events = back))

let test_csv_malformed () =
  (try
     ignore (Csv.of_string "server_id,event_time,outage_duration,time_between_events\n1,2,3\n");
     Alcotest.fail "expected failure"
   with Failure msg ->
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0))

let test_csv_tolerates_missing_header () =
  let back = Csv.of_string "1,2.0,0.5,3.0\n" in
  Alcotest.(check int) "one row" 1 (Array.length back);
  check_float "tbe" 3.0 back.(0).Event.time_between_events

(* ---- Pipeline (the Section-2 reproduction) ---- *)

let full_report =
  lazy
    (let events = Generate.generate Generate.default in
     match Pipeline.analyze events with
     | Ok r -> r
     | Error e -> Alcotest.failf "pipeline failed: %a" Urs_prob.Fit.pp_error e)

let test_pipeline_rejects_exponential_operative () =
  let r = Lazy.force full_report in
  let ks = r.Pipeline.operative.Pipeline.exponential_ks in
  Alcotest.(check bool) "exponential rejected" false ks.Urs_prob.Ks.accept;
  (* the paper found D = 0.4742 — a gross misfit, far above critical *)
  Alcotest.(check bool) "rejection is gross" true
    (ks.Urs_prob.Ks.statistic > 2.0 *. ks.Urs_prob.Ks.critical)

let test_pipeline_accepts_h2_operative () =
  let r = Lazy.force full_report in
  let ks = r.Pipeline.operative.Pipeline.h2_ks in
  Alcotest.(check bool) "H2 accepted at 5%" true ks.Urs_prob.Ks.accept

let test_pipeline_accepts_h2_inoperative () =
  let r = Lazy.force full_report in
  let ks = r.Pipeline.inoperative.Pipeline.h2_ks in
  Alcotest.(check bool) "H2 accepted at 5%" true ks.Urs_prob.Ks.accept

let test_pipeline_recovers_operative_parameters () =
  let r = Lazy.force full_report in
  let fit = r.Pipeline.operative.Pipeline.h2_fit in
  let w = Urs_prob.Hyperexponential.weights fit in
  let rates = Urs_prob.Hyperexponential.rates fit in
  (* ground truth (paper's fitted values): 0.7246@0.1663, 0.2754@0.0091 *)
  check_float ~tol:0.03 "w1" 0.7246 w.(0);
  check_float ~tol:0.015 "r1" 0.1663 rates.(0);
  check_float ~tol:0.001 "r2" 0.0091 rates.(1)

let test_pipeline_scv_matches_paper () =
  let r = Lazy.force full_report in
  (* paper: C̃² = 4.6 for operative periods *)
  check_float ~tol:0.3 "operative scv" 4.6 r.Pipeline.operative.Pipeline.scv

let test_pipeline_density_table () =
  let r = Lazy.force full_report in
  let side = r.Pipeline.operative in
  let hist = side.Pipeline.histogram in
  let pdf = Urs_prob.Hyperexponential.pdf side.Pipeline.h2_fit in
  let rows = Pipeline.density_table hist pdf ~upper:250.0 in
  (* exactly the bins whose midpoint is <= upper, in bin order, carrying
     the histogram's own density and the fitted pdf at the midpoint *)
  let xs = Urs_stats.Histogram.midpoints hist in
  let ds = Urs_stats.Histogram.densities hist in
  let expected =
    List.filter_map
      (fun i -> if xs.(i) <= 250.0 then Some (xs.(i), ds.(i), pdf xs.(i)) else None)
      (List.init (Urs_stats.Histogram.bins hist) Fun.id)
  in
  Alcotest.(check bool) "has rows" true (rows <> []);
  Alcotest.(check (list (triple (float 0.0) (float 0.0) (float 0.0))))
    "rows" expected rows

let test_pipeline_histogram_vs_sample_moments () =
  (* the histogram estimator (paper eq. 1) is upward-biased on a
     long-tailed sample binned into 50 coarse intervals; it must still
     land within ~15% of the unbinned sample mean *)
  let r = Lazy.force full_report in
  let s = r.Pipeline.operative in
  let m1_hist = s.Pipeline.histogram_moments.(0) in
  let m1_samp = s.Pipeline.sample_moments.(0) in
  if abs_float (m1_hist -. m1_samp) /. m1_samp > 0.15 then
    Alcotest.failf "histogram m1 %g far from sample m1 %g" m1_hist m1_samp

(* ---- Bootstrap ---- *)

let test_bootstrap_covers_truth () =
  (* resample fits must bracket the ground-truth parameters *)
  let cfg = { small_config with Generate.rows = 40_000; seed = 12 } in
  let cleaned = Clean.clean (Generate.generate cfg) in
  match
    Bootstrap.h2_fit ~replicates:60 ~seed:4
      cleaned.Clean.operative_periods
  with
  | Error e -> Alcotest.failf "bootstrap failed: %a" Urs_prob.Fit.pp_error e
  | Ok b ->
      Alcotest.(check bool) "most replicates fit" true (b.Bootstrap.failed < 10);
      let covers iv truth =
        truth >= iv.Bootstrap.lo -. 1e-9 && truth <= iv.Bootstrap.hi +. 1e-9
      in
      Alcotest.(check bool) "mean interval covers 34.62" true
        (covers b.Bootstrap.mean 34.62);
      Alcotest.(check bool) "weight interval covers 0.7246" true
        (covers b.Bootstrap.weight1 0.7246);
      Alcotest.(check bool) "interval ordered" true
        (b.Bootstrap.rate1.Bootstrap.lo <= b.Bootstrap.rate1.Bootstrap.hi)

let test_bootstrap_deterministic () =
  let cfg = { small_config with Generate.rows = 5_000; seed = 3 } in
  let cleaned = Clean.clean (Generate.generate cfg) in
  let run () =
    Bootstrap.h2_fit ~replicates:30 ~seed:9 cleaned.Clean.operative_periods
  in
  match (run (), run ()) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "same intervals" true
        (a.Bootstrap.mean = b.Bootstrap.mean
        && a.Bootstrap.rate1 = b.Bootstrap.rate1)
  | _ -> Alcotest.fail "bootstrap failed"

let () =
  Alcotest.run "urs_dataset"
    [
      ("event", [ Alcotest.test_case "derivation" `Quick test_event_derivation ]);
      ( "generate",
        [
          Alcotest.test_case "row count" `Quick test_generate_row_count;
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "anomaly fraction" `Quick
            test_generate_anomaly_fraction;
          Alcotest.test_case "per-server times increase" `Quick
            test_generate_event_times_increase_per_server;
        ] );
      ( "clean",
        [
          Alcotest.test_case "removes anomalies" `Quick test_clean_removes_anomalies;
          Alcotest.test_case "recovers means" `Quick test_clean_recovers_means;
        ] );
      ( "csv",
        [
          Alcotest.test_case "string roundtrip" `Quick test_csv_roundtrip_string;
          Alcotest.test_case "file roundtrip" `Quick test_csv_roundtrip_file;
          Alcotest.test_case "malformed input" `Quick test_csv_malformed;
          Alcotest.test_case "missing header tolerated" `Quick
            test_csv_tolerates_missing_header;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "covers ground truth" `Quick
            test_bootstrap_covers_truth;
          Alcotest.test_case "deterministic" `Quick test_bootstrap_deterministic;
        ] );
      ( "pipeline (section 2)",
        [
          Alcotest.test_case "exponential rejected for operative periods" `Quick
            test_pipeline_rejects_exponential_operative;
          Alcotest.test_case "H2 accepted for operative periods" `Quick
            test_pipeline_accepts_h2_operative;
          Alcotest.test_case "H2 accepted for inoperative periods" `Quick
            test_pipeline_accepts_h2_inoperative;
          Alcotest.test_case "recovers the paper's fitted parameters" `Quick
            test_pipeline_recovers_operative_parameters;
          Alcotest.test_case "scv matches paper (4.6)" `Quick
            test_pipeline_scv_matches_paper;
          Alcotest.test_case "figure 3/4 density table" `Quick
            test_pipeline_density_table;
          Alcotest.test_case "moment estimators agree" `Quick
            test_pipeline_histogram_vs_sample_moments;
        ] );
    ]
