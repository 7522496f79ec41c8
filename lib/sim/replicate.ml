module Metrics = Urs_obs.Metrics
module Span = Urs_obs.Span
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

let m_replications =
  Metrics.counter ~help:"Simulation replications completed"
    "urs_sim_replications_total"

let m_half_width measure =
  Metrics.gauge
    ~labels:[ ("measure", measure) ]
    ~help:"Confidence-interval half-width of the last Replicate.run (last write)"
    "urs_sim_ci_halfwidth"

type interval = { estimate : float; half_width : float }

type summary = {
  mean_jobs : interval;
  mean_response : interval;
  mean_operative : interval;
  replications : int;
  confidence : float;
}

let interval_of ~confidence values =
  let n = Array.length values in
  let mean = Urs_stats.Empirical.mean values in
  if n < 2 then { estimate = mean; half_width = infinity }
  else begin
    let s = Urs_stats.Empirical.std_dev values in
    let t = Urs_stats.Student_t.critical ~df:(n - 1) ~confidence in
    { estimate = mean; half_width = t *. s /. sqrt (float_of_int n) }
  end

let ledger_params cfg ~duration ~replications =
  [
    ("servers", Json.Int cfg.Server_farm.servers);
    ("lambda", Json.Float cfg.Server_farm.lambda);
    ("mu", Json.Float cfg.Server_farm.mu);
    ("duration", Json.Float duration);
    ("replications", Json.Int replications);
  ]

let progress_task = "sim:replications"

let run ?(seed = 1) ?(replications = 10) ?(confidence = 0.95) ?warmup ?pool
    ?(timelines = true) ?timeline_registry ?timeline_capacity ~duration cfg =
  if replications < 1 then invalid_arg "Replicate.run: replications >= 1";
  let master = Urs_prob.Pcg.create seed in
  (* all replications share one bucket layout (same horizon), so their
     trajectories can be averaged bucket-by-bucket *)
  let horizon =
    (match warmup with Some w -> w | None -> 0.1 *. duration) +. duration
  in
  (* Split-stream seeding: every replication's seed is drawn from the
     master stream up front, sequentially, so the per-replication
     streams are independent and non-overlapping AND identical whether
     the replications then run sequentially or on a pool. *)
  let seeds =
    Array.init replications (fun _ -> Urs_prob.Pcg.split_seed master)
  in
  let params = ledger_params cfg ~duration ~replications in
  (* per-replication results land in flat float arrays (one slot per
     replication, disjoint across pool domains) instead of a list of
     result records *)
  let mj = Array.make replications 0.0 in
  let mr = Array.make replications 0.0 in
  let mo = Array.make replications 0.0 in
  let run_one rep =
    let rep_seed = seeds.(rep) in
    (* one span per replication: urs_sim_replication_seconds is the
       per-replication wall-time histogram *)
    let probe =
      if timelines then
        Some
          (Probe.create ?registry:timeline_registry ?capacity:timeline_capacity
             ~horizon
             ~labels:[ ("rep", string_of_int rep) ]
             ~meta:[ ("domain", string_of_int (Domain.self () :> int)) ]
             ~servers:cfg.Server_farm.servers ())
      else None
    in
    let t0 = Span.now () in
    let r =
      Span.with_ ~name:"urs_sim_replication" (fun () ->
          let r =
            Server_farm.run ~seed:rep_seed ?warmup ~track_responses:false
              ?probe ~duration cfg
          in
          Metrics.inc m_replications;
          r)
    in
    Urs_obs.Progress.tick progress_task;
    Ledger.record ~kind:"sim.replication" ~strategy:"sim" ~params
      ~wall_seconds:(Span.now () -. t0)
      ~summary:
        [
          ("replication", Json.Int rep);
          ("seed", Json.Int rep_seed);
          ("mean_jobs", Json.Float r.Server_farm.mean_jobs);
          ("mean_response", Json.Float r.Server_farm.mean_response);
          ("mean_operative", Json.Float r.Server_farm.mean_operative);
        ]
      ();
    mj.(rep) <- r.Server_farm.mean_jobs;
    mr.(rep) <- r.Server_farm.mean_response;
    mo.(rep) <- r.Server_farm.mean_operative
  in
  Urs_obs.Progress.start ~total:replications progress_task;
  (* one span over the fan-out, so pooled replications trace as one
     tree (their contexts are captured from this span's) *)
  Span.with_ ~name:"urs_replicate" (fun () ->
      match pool with
      | None ->
          for rep = 0 to replications - 1 do
            run_one rep
          done
      | Some pool ->
          ignore
            (Urs_exec.Pool.map pool run_one (List.init replications Fun.id)));
  Urs_obs.Progress.finish progress_task;
  let t0 = Span.now () in
  let summary =
    {
      mean_jobs = interval_of ~confidence mj;
      mean_response = interval_of ~confidence mr;
      mean_operative = interval_of ~confidence mo;
      replications;
      confidence;
    }
  in
  Metrics.set (m_half_width "mean_jobs") summary.mean_jobs.half_width;
  Metrics.set (m_half_width "mean_response") summary.mean_response.half_width;
  Metrics.set (m_half_width "mean_operative") summary.mean_operative.half_width;
  Ledger.record ~kind:"sim.summary" ~strategy:"sim" ~params
    ~wall_seconds:(Span.now () -. t0)
    ~summary:
      [
        ("mean_jobs", Json.Float summary.mean_jobs.estimate);
        ("mean_jobs_hw", Json.Float summary.mean_jobs.half_width);
        ("mean_response", Json.Float summary.mean_response.estimate);
        ("mean_response_hw", Json.Float summary.mean_response.half_width);
        ("mean_operative", Json.Float summary.mean_operative.estimate);
        ("mean_operative_hw", Json.Float summary.mean_operative.half_width);
        ("confidence", Json.Float confidence);
      ]
    ();
  summary

let pp_summary ppf s =
  Format.fprintf ppf
    "L = %.4f ± %.4f, W = %.4f ± %.4f, operative = %.4f ± %.4f (%d reps, %g%%)"
    s.mean_jobs.estimate s.mean_jobs.half_width s.mean_response.estimate
    s.mean_response.half_width s.mean_operative.estimate
    s.mean_operative.half_width s.replications
    (100.0 *. s.confidence)
