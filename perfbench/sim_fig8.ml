(* sim-fig8: the Figure-8 simulation (N = 10, 92 % load, 4
   replications) through Replicate.run on a 2-domain Urs_exec.Pool, as
   `urs simulate --jobs 2` runs it, repeated until the time budget is
   spent. Between pooled runs, one replication through Replicate.run
   without a pool (as `urs simulate --jobs 1` runs it) and one bare
   Server_farm.run without timeline probes give the single-domain
   figures. The seed is the simulation's master seed, so every run of
   one process repeats the same work.

   The end-to-end figures are the single-domain ones, at the speed of
   the one-core heap reference (see Common). The pooled run's time is
   a detail: how fast two domains run together swings with where the
   host places the two virtual cores, and neither reference followed
   it (the pooled time over the bare time moved by 16 % between
   runs). *)

open Common

let servers = 10
let load = 0.92
let replications = 4
let duration = 100_000.0
let domains = 2

let config () =
  let m = Models.paper ~servers ~load in
  {
    Urs_sim.Server_farm.servers;
    lambda = m.Urs.Model.arrival_rate;
    mu = m.Urs.Model.service_rate;
    operative = m.Urs.Model.operative;
    inoperative = m.Urs.Model.inoperative;
    repair_crews = None;
  }

let events_total () =
  Option.value ~default:0.0 (Urs_obs.Metrics.value "urs_sim_events_total")

(* set-up: start the pool and answer one short simulation through it,
   which is what a first `urs simulate --jobs 2` call pays *)
let setup cfg seed =
  let pool =
    Trace.with_ ~layer:"exec" "Pool.create" (fun () ->
        Urs_exec.Pool.create ~name:"perfbench" ~domains ())
  in
  ignore
    (Urs_sim.Replicate.run ~pool ~seed ~replications ~duration:10_000.0 cfg);
  pool

type run = {
  pooled : interval list;  (** pooled Figure-8 runs, 2-core reference *)
  events_per_run : float;  (** events of one pooled run *)
  single : interval list;  (** unpooled replications, 1-core reference *)
  events_per_rep : float;  (** events of one unpooled replication *)
  bare : interval list;  (** bare Server_farm.run, 1-core reference *)
  bare_events : int;
  summary : Urs_sim.Replicate.summary;
  gc : gc;  (** allocation of the last unpooled replication *)
}

(* Rounds of one pooled run, one unpooled replication and one bare run,
   each between reference runs, until the time budget is spent. Each
   round starts its own pool and stops it before the single-domain runs:
   as under `urs simulate --jobs 1`, no idle domain then has to join
   the replication's minor collections. *)
let measure ~seed ~seconds cfg =
  let pooled = ref [] and single = ref [] and bare = ref [] in
  let summary = ref None and bare_events = ref 0 and gc = ref None in
  let events = ref 0.0 and rep_events = ref 0.0 in
  let t_end = now () +. seconds in
  while !pooled = [] || now () < t_end do
    Gc.full_major ();
    let e0 = events_total () in
    let pool = Urs_exec.Pool.create ~name:"perfbench" ~domains () in
    let span, s =
      Fun.protect
        ~finally:(fun () -> Urs_exec.Pool.shutdown pool)
        (fun () ->
          measured ~speed:heap2 (fun () ->
              Trace.with_ ~req:(Trace.new_req ()) ~layer:"sim" "Replicate.run" (fun () ->
                  Urs_sim.Replicate.run ~pool ~seed ~replications ~duration cfg)))
    in
    events := events_total () -. e0;
    pooled := span :: !pooled;
    summary := Some s;
    let e0 = events_total () and g0 = gc_sample () in
    let span, _ =
      measured ~speed:heap1 (fun () ->
          Trace.with_ ~req:(Trace.new_req ()) ~layer:"sim" "Replicate.run.single" (fun () ->
              Urs_sim.Replicate.run ~seed ~replications:1 ~duration cfg))
    in
    gc := Some (gc_delta ~before:g0 ~after:(gc_sample ()));
    rep_events := events_total () -. e0;
    single := span :: !single;
    let span, r =
      measured ~speed:heap1 (fun () ->
          Trace.with_ ~req:(Trace.new_req ()) ~layer:"sim" "Server_farm.run" (fun () ->
              Urs_sim.Server_farm.run ~seed ~track_responses:false ~duration cfg))
    in
    bare_events := r.Urs_sim.Server_farm.events;
    bare := span :: !bare
  done;
  {
    pooled = !pooled;
    events_per_run = !events;
    single = !single;
    events_per_rep = !rep_events;
    bare = !bare;
    bare_events = !bare_events;
    summary = Option.get !summary;
    gc = Option.get !gc;
  }

(* per-layer figures of a measured run: the bare simulator's event
   count and rate on one domain, the words allocated per event by one
   replication as Replicate.run makes it (timeline probe included), and
   the pool's efficiency (the replications' single-domain wall time over
   domains x pooled wall time) *)
let layer_metrics r =
  let ev = float_of_int r.bare_events in
  let raw xs = median (List.map wall xs) in
  [
    m "sim.events" "count" ev;
    m "sim.events_per_s.single" "1/s" (ev /. raw r.bare);
    m "sim.minor_words_per_event" "words" (r.gc.minor_words /. r.events_per_rep);
    m "sim.major_words_per_event" "words" (r.gc.major_words /. r.events_per_rep);
    m "exec.pool_efficiency" "1"
      (float_of_int replications *. raw r.single /. (float_of_int domains *. raw r.pooled));
  ]

let run ~seed ~seconds =
  let cfg = config () in
  let setups =
    List.init 9 (fun _ ->
        fst (measured ~speed:heap2 (fun () -> Urs_exec.Pool.shutdown (setup cfg seed))))
  in
  let r = measure ~seed ~seconds cfg in
  (* read before the check's exact solve, whose memory is not the
     simulation's *)
  let rss = peak_rss_mb "self" in
  (* output check: the simulated L lies within 4 CI half-widths of the
     exact L of the same model *)
  let problems = ref [] in
  let exact = Urs.Solver.evaluate_exn (Models.paper ~servers ~load) in
  let est = r.summary.Urs_sim.Replicate.mean_jobs in
  let dev = Float.abs (est.estimate -. exact.Urs.Solver.mean_jobs) in
  note "check: simulated L %.4f ± %.4f vs exact %.4f (%.2f half-widths)"
    est.estimate est.half_width exact.mean_jobs (dev /. est.half_width);
  if not (dev <= 4.0 *. est.half_width) then
    problems :=
      Printf.sprintf "simulated L %g is %g half-widths from exact %g" est.estimate
        (dev /. est.half_width) exact.mean_jobs
      :: !problems;
  let n_runs = List.length r.pooled in
  let raw xs = median (List.map wall xs) and adjusted xs = median (List.map at_reference xs) in
  let details =
    [
      m "pooled_runs" "count" (float_of_int n_runs);
      m "events_per_run" "count" r.events_per_run;
      m "pooled_s" "s" (raw r.pooled);
      m "pooled_s.at_reference" "s" (adjusted r.pooled);
      m "sim_events_per_s" "1/s" (r.events_per_run /. raw r.pooled);
      m "setup_s.raw" "s" (raw setups);
      m "light_s.raw" "s" (raw r.bare);
      m "heavy_s.raw" "s" (raw r.single);
      m "heap_ref_s" "s" (median (List.map snd heap1.log));
      m "heap2_ref_s" "s" (median (List.map snd heap2.log));
    ]
  in
  let heavy_s = adjusted r.single in
  let metrics =
    [
      m "setup_s" "s" (adjusted setups);
      m "peak_rss_mb" "MB" rss;
      m "light_s" "s" (adjusted r.bare);
      m "heavy_s" "s" heavy_s;
      m "rate_per_s" "1/s" (r.events_per_rep /. heavy_s);
    ]
  in
  ( {
      attempted = (3 * n_runs) + 1;
      failed = List.length !problems;
      problems = !problems;
      metrics;
    },
    details,
    layer_metrics r )
