module D = Urs_prob.Distribution
module Pcg = Urs_prob.Pcg
module Sampler = Urs_prob.Sampler

type config = {
  rows : int;
  servers : int;
  operative : D.t;
  inoperative : D.t;
  anomaly_fraction : float;
  seed : int;
}

let default =
  {
    rows = 140_000;
    servers = 200;
    operative =
      D.hyperexponential ~weights:[| 0.7246; 0.2754 |]
        ~rates:[| 0.1663; 0.0091 |];
    inoperative =
      D.hyperexponential ~weights:[| 0.9303; 0.0697 |]
        ~rates:[| 25.0043; 1.6346 |];
    anomaly_fraction = 0.035;
    seed = 2006;
  }

let generate cfg =
  if cfg.rows < 1 then invalid_arg "Generate.generate: rows must be >= 1";
  if cfg.servers < 1 then invalid_arg "Generate.generate: servers must be >= 1";
  if cfg.anomaly_fraction < 0.0 || cfg.anomaly_fraction >= 1.0 then
    invalid_arg "Generate.generate: anomaly_fraction in [0,1)";
  let rng = Pcg.create cfg.seed in
  let operative = Sampler.compile cfg.operative in
  let inoperative = Sampler.compile cfg.inoperative in
  (* per-server clocks; each server starts mid-life with an operative
     period, then its first logged event is its first breakdown *)
  let clocks =
    Array.init cfg.servers (fun _ -> Sampler.sample operative rng)
  in
  let events =
    Array.init cfg.rows (fun _ ->
        let sid = Pcg.int rng cfg.servers in
        let event_time = clocks.(sid) in
        let outage = Sampler.sample inoperative rng in
        let next_operative = Sampler.sample operative rng in
        clocks.(sid) <- event_time +. outage +. next_operative;
        let tbe = outage +. next_operative in
        if Pcg.float rng < cfg.anomaly_fraction then
          (* corrupted row: the recorded time-between-events is an
             impossible fraction of the outage (e.g. clock skew between
             monitoring agents) *)
          {
            Event.server_id = sid;
            event_time;
            outage_duration = outage;
            time_between_events = outage *. Pcg.float rng;
          }
        else
          {
            Event.server_id = sid;
            event_time;
            outage_duration = outage;
            time_between_events = tbe;
          })
  in
  events
