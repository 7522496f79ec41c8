module Mq = Urs_mmq
module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

type sim_options = { duration : float; replications : int; seed : int }

let default_sim_options = { duration = 200_000.0; replications = 5; seed = 1 }

type strategy = Exact | Approximate | Matrix_geometric | Simulation of sim_options

type performance = {
  strategy_used : strategy;
  mean_jobs : float;
  mean_response : float;
  utilization : float;
  dominant_eigenvalue : float option;
  confidence_half_width : float option;
}

type error =
  | Not_phase_type
  | Unstable of Mq.Stability.verdict
  | Solver_failure of string

let pp_error ppf = function
  | Not_phase_type ->
      Format.fprintf ppf
        "period distributions are not phase-type; use the Simulation strategy"
  | Unstable v ->
      Format.fprintf ppf "queue is unstable: %a" Mq.Stability.pp_verdict v
  | Solver_failure msg -> Format.fprintf ppf "solver failure: %s" msg

let render pp_e e = Format.asprintf "%a" pp_e e

let strategy_label = function
  | Exact -> "exact"
  | Approximate -> "approx"
  | Matrix_geometric -> "mg"
  | Simulation _ -> "sim"

let evaluate_inner ?pool ?max_iter ?(strategy = Exact) model =
  let verdict = Model.stability model in
  (* the phase-type solvers differ only in their solve, how their error
     type says "unstable", and the (L, W, z_s) they report *)
  let phase_type solve ~unstable pp_e measures =
    match Option.map solve (Model.qbd model) with
    | None -> Error Not_phase_type
    | Some (Error e) ->
        Error
          (match unstable e with
          | Some v -> Unstable v
          | None -> Solver_failure (render pp_e e))
    | Some (Ok sol) ->
        let mean_jobs, mean_response, z = measures sol in
        Ok
          {
            strategy_used = strategy;
            mean_jobs;
            mean_response;
            utilization = verdict.Mq.Stability.utilization;
            dominant_eigenvalue = Some z;
            confidence_half_width = None;
          }
  in
  if not verdict.Mq.Stability.stable then Error (Unstable verdict)
  else
    match strategy with
    | Exact ->
        Mq.Spectral.(
          phase_type (solve ?max_iter)
            ~unstable:(function Unstable v -> Some v | _ -> None)
            pp_error (fun s ->
              (mean_queue_length s, mean_response_time s, dominant_eigenvalue s)))
    | Approximate ->
        Mq.Geometric.(
          phase_type solve
            ~unstable:(function Unstable v -> Some v | _ -> None)
            pp_error (fun s ->
              (mean_queue_length s, mean_response_time s, dominant_eigenvalue s)))
    | Matrix_geometric ->
        Mq.Matrix_geometric.(
          phase_type solve
            ~unstable:(function Unstable v -> Some v | _ -> None)
            pp_error (fun s ->
              ( mean_queue_length s,
                mean_response_time s,
                spectral_radius_estimate s )))
    | Simulation opts ->
        let cfg =
          {
            Urs_sim.Server_farm.servers = model.Model.servers;
            lambda = model.Model.arrival_rate;
            mu = model.Model.service_rate;
            operative = model.Model.operative;
            inoperative = model.Model.inoperative;
            repair_crews = model.Model.repair_crews;
          }
        in
        let summary =
          Urs_sim.Replicate.run ?pool ~seed:opts.seed
            ~replications:opts.replications ~duration:opts.duration cfg
        in
        Ok
          {
            strategy_used = strategy;
            mean_jobs = summary.Urs_sim.Replicate.mean_jobs.estimate;
            mean_response = summary.Urs_sim.Replicate.mean_response.estimate;
            utilization = verdict.Mq.Stability.utilization;
            dominant_eigenvalue = None;
            confidence_half_width =
              Some summary.Urs_sim.Replicate.mean_jobs.half_width;
          }

let ledger_params model =
  [
    ("servers", Json.Int model.Model.servers);
    ("lambda", Json.Float model.Model.arrival_rate);
    ("mu", Json.Float model.Model.service_rate);
    ( "repair_crews",
      match model.Model.repair_crews with
      | Some k -> Json.Int k
      | None -> Json.Null );
  ]

(* snapshot of the last-write gauges that belong to this strategy; the
   ledger keeps the per-solve history the process-wide gauges cannot *)
let ledger_gauges strat =
  let labels = [ ("strategy", strategy_label strat) ] in
  List.filter_map
    (fun name ->
      Option.map (fun v -> (name, v)) (Metrics.value ~labels name))
    [
      "urs_spectral_dominant_z";
      "urs_spectral_residual";
      "urs_spectral_eigenvalues";
    ]

let evaluate ?pool ?max_iter ?(strategy = Exact) model =
  let labels = [ ("strategy", strategy_label strategy) ] in
  Metrics.inc
    (Metrics.counter ~labels ~help:"Solver.evaluate calls"
       "urs_solver_calls_total");
  let t0 = Span.now () in
  let result =
    Span.with_ ~name:"urs_solver_evaluate" ~labels (fun () ->
        evaluate_inner ?pool ?max_iter ~strategy model)
  in
  let wall = Span.now () -. t0 in
  let outcome_counter =
    match result with
    | Ok _ ->
        Metrics.counter ~labels ~help:"Solver.evaluate successes"
          "urs_solver_success_total"
    | Error _ ->
        Metrics.counter ~labels ~help:"Solver.evaluate failures"
          "urs_solver_failures_total"
  in
  Metrics.inc outcome_counter;
  (match result with
  | Ok p ->
      Ledger.record ~kind:"solver.evaluate"
        ~strategy:(strategy_label strategy) ~params:(ledger_params model)
        ~wall_seconds:wall
        ~summary:
          (List.concat
             [
               [
                 ("mean_jobs", Json.Float p.mean_jobs);
                 ("mean_response", Json.Float p.mean_response);
                 ("utilization", Json.Float p.utilization);
               ];
               (match p.dominant_eigenvalue with
               | Some z -> [ ("dominant_z", Json.Float z) ]
               | None -> []);
               (match p.confidence_half_width with
               | Some hw -> [ ("ci_half_width", Json.Float hw) ]
               | None -> []);
             ])
        ~gauges:(ledger_gauges strategy) ()
  | Error e ->
      Ledger.record ~kind:"solver.evaluate"
        ~strategy:(strategy_label strategy) ~params:(ledger_params model)
        ~wall_seconds:wall ~outcome:"error"
        ~summary:[ ("error", Json.String (render pp_error e)) ]
        ());
  result

let evaluate_exn ?pool ?max_iter ?strategy model =
  match evaluate ?pool ?max_iter ?strategy model with
  | Ok p -> p
  | Error e -> failwith (render pp_error e)

let strategy_name = function
  | Exact -> "exact (spectral expansion)"
  | Approximate -> "geometric approximation"
  | Matrix_geometric -> "matrix-geometric"
  | Simulation _ -> "simulation"

let pp_performance ppf p =
  Format.fprintf ppf "L=%.4f W=%.4f util=%.3f [%s]" p.mean_jobs p.mean_response
    p.utilization (strategy_name p.strategy_used);
  (match p.dominant_eigenvalue with
  | Some z -> Format.fprintf ppf " z_s=%.5f" z
  | None -> ());
  match p.confidence_half_width with
  | Some hw -> Format.fprintf ppf " ±%.4f" hw
  | None -> ()
