module Http = Urs_obs.Http
module Metrics = Urs_obs.Metrics
module Ledger = Urs_obs.Ledger
module Json = Urs_obs.Json

(* HTTP traffic generation against `urs serve` — the measuring half of
   the serving-and-measuring loop.

   Two disciplines:

   - Closed loop: N workers, each cycling request → response → think.
     The offered load adapts to the service rate (a slow server slows
     its clients), like a fixed population of interactive users.
   - Open loop: arrivals scheduled by a Poisson process of rate λ,
     independent of the server's state. Latency is measured from the
     {e scheduled} arrival, so coordinated omission cannot hide a slow
     server behind a slowed generator: if every worker is stuck, the
     next arrivals queue and their waiting counts against the
     response time.

   Per-request latencies land in a run-local registry (histogram over
   {!Metrics.default_latency_buckets}), so the run's quantiles come
   from {!Metrics.histogram_quantile} exactly like the server side's,
   and one ["loadgen"] ledger record summarizes the run. *)

type mode =
  | Closed of { workers : int; think_s : float }
  | Open of { rate : float; workers : int }

type outcome_counts = {
  mutable requests : int;
  mutable errors : int;  (* non-2xx responses *)
  mutable timeouts : int;  (* transport errors and timeouts *)
  mutable lat_sum : float;
  mutable lat_max : float;
  codes : (int, int) Hashtbl.t;
}

let fresh_counts () =
  {
    requests = 0;
    errors = 0;
    timeouts = 0;
    lat_sum = 0.0;
    lat_max = 0.0;
    codes = Hashtbl.create 8;
  }

type result = {
  mode : mode;
  target : string;
  requests : int;
  errors : int;
  timeouts : int;
  codes : (int * int) list;  (* status code -> count, sorted *)
  wall_s : float;
  throughput : float;  (* completed requests per second *)
  mean_s : float;
  max_s : float;
  p50_s : float;
  p90_s : float;
  p99_s : float;
}

let mode_label = function Closed _ -> "closed" | Open _ -> "open"

let mode_json = function
  | Closed { workers; think_s } ->
      [
        ("mode", Json.String "closed");
        ("workers", Json.Int workers);
        ("think_s", Json.Float think_s);
      ]
  | Open { rate; workers } ->
      [
        ("mode", Json.String "open");
        ("rate", Json.Float rate);
        ("workers", Json.Int workers);
      ]

let result_json r =
  Json.Obj
    (mode_json r.mode
    @ [
        ("target", Json.String r.target);
        ("requests", Json.Int r.requests);
        ("errors", Json.Int r.errors);
        ("timeouts", Json.Int r.timeouts);
        ( "codes",
          Json.Obj
            (List.map (fun (c, n) -> (string_of_int c, Json.Int n)) r.codes) );
        ("wall_s", Json.Float r.wall_s);
        ("throughput", Json.Float r.throughput);
        ("latency_mean_s", Json.Float r.mean_s);
        ("latency_max_s", Json.Float r.max_s);
        ("latency_p50_s", Json.Float r.p50_s);
        ("latency_p90_s", Json.Float r.p90_s);
        ("latency_p99_s", Json.Float r.p99_s);
      ])

(* one request, classified; timeouts are transport errors that consumed
   (most of) the timeout budget — a refused connection fails fast and is
   an error, a silent server is a timeout *)
let fire ~addr ~timeout_s ~meth ~body ~content_type ~port ~target =
  let t0 = Unix.gettimeofday () in
  let r = Http.request ~addr ~timeout_s ?body ~content_type ~meth ~port target in
  let elapsed = Unix.gettimeofday () -. t0 in
  match r with
  | Ok (status, _, _) -> (elapsed, `Status status)
  | Error _ when elapsed >= 0.95 *. timeout_s -> (elapsed, `Timeout)
  | Error _ -> (elapsed, `Transport)

let observe (counts : outcome_counts) hist ~latency outcome =
  counts.requests <- counts.requests + 1;
  counts.lat_sum <- counts.lat_sum +. latency;
  if latency > counts.lat_max then counts.lat_max <- latency;
  Metrics.observe hist latency;
  match outcome with
  | `Status status ->
      Hashtbl.replace counts.codes status
        (1 + Option.value (Hashtbl.find_opt counts.codes status) ~default:0);
      if status < 200 || status > 299 then counts.errors <- counts.errors + 1
  | `Timeout -> counts.timeouts <- counts.timeouts + 1
  | `Transport -> counts.errors <- counts.errors + 1

let closed_worker ~deadline ~think_s ~shoot counts hist =
  while Unix.gettimeofday () < deadline do
    let latency, outcome = shoot () in
    observe counts hist ~latency outcome;
    if think_s > 0.0 && Unix.gettimeofday () < deadline then
      Thread.delay think_s
  done

(* open loop: workers pull scheduled arrival times off one shared
   Poisson schedule; latency runs from the scheduled arrival, not the
   moment a worker got free *)
let open_worker ~deadline ~schedule ~shoot counts hist =
  let continue = ref true in
  while !continue do
    match schedule () with
    | None -> continue := false
    | Some at ->
        let now = Unix.gettimeofday () in
        if at > deadline then continue := false
        else begin
          if at > now then Thread.delay (at -. now);
          (* latency = completion − scheduled arrival: the time the
             request spent waiting for a free worker counts too *)
          let start = Unix.gettimeofday () in
          let elapsed, outcome = shoot () in
          let latency = Float.max 0.0 (start -. at) +. elapsed in
          observe counts hist ~latency outcome
        end
  done

let merge_counts per_worker =
  let total : outcome_counts = fresh_counts () in
  Array.iter
    (fun (c : outcome_counts) ->
      total.requests <- total.requests + c.requests;
      total.errors <- total.errors + c.errors;
      total.timeouts <- total.timeouts + c.timeouts;
      total.lat_sum <- total.lat_sum +. c.lat_sum;
      if c.lat_max > total.lat_max then total.lat_max <- c.lat_max;
      Hashtbl.iter
        (fun code n ->
          Hashtbl.replace total.codes code
            (n + Option.value (Hashtbl.find_opt total.codes code) ~default:0))
        c.codes)
    per_worker;
  total

let quantile_of registry q =
  let entries = Metrics.snapshot ~registry () in
  List.fold_left
    (fun acc (e : Metrics.entry) ->
      match e.Metrics.data with
      | Metrics.Histogram_value h
        when e.Metrics.name = "urs_loadgen_request_seconds" ->
          Metrics.histogram_quantile ~bounds:h.bounds ~counts:h.counts q
      | _ -> acc)
    nan entries

let run ?(addr = "127.0.0.1") ?(timeout_s = 5.0) ?(seed = 1) ?(meth = "GET")
    ?body ?(content_type = "application/json") ~port ~target ~duration_s ~mode
    () =
  if duration_s <= 0.0 then invalid_arg "Loadgen.run: duration must be positive";
  (match mode with
  | Closed { workers; think_s } ->
      if workers < 1 then invalid_arg "Loadgen.run: workers must be >= 1";
      if think_s < 0.0 then invalid_arg "Loadgen.run: think time must be >= 0"
  | Open { rate; workers } ->
      if rate <= 0.0 then invalid_arg "Loadgen.run: rate must be positive";
      if workers < 1 then invalid_arg "Loadgen.run: workers must be >= 1");
  let registry = Metrics.create () in
  let hist =
    Metrics.histogram ~registry ~buckets:Metrics.default_latency_buckets
      ~labels:[ ("target", target) ]
      ~help:"Client-observed request latency" "urs_loadgen_request_seconds"
  in
  let shoot () = fire ~addr ~timeout_s ~meth ~body ~content_type ~port ~target in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. duration_s in
  let nworkers =
    match mode with Closed { workers; _ } | Open { workers; _ } -> workers
  in
  let per_worker = Array.init nworkers (fun _ -> fresh_counts ()) in
  let body_of =
    (* one shared schedule: building it per worker would multiply the
       offered rate by the worker count *)
    match mode with
    | Closed { think_s; _ } ->
        fun i () -> closed_worker ~deadline ~think_s ~shoot per_worker.(i) hist
    | Open { rate; _ } ->
        let rng = Urs_prob.Pcg.create seed in
        let lock = Mutex.create () in
        let next = ref (t0 +. Urs_prob.Pcg.exponential rng rate) in
        let schedule () =
          Mutex.lock lock;
          let at = !next in
          next := at +. Urs_prob.Pcg.exponential rng rate;
          Mutex.unlock lock;
          if at > deadline then None else Some at
        in
        fun i () -> open_worker ~deadline ~schedule ~shoot per_worker.(i) hist
  in
  let threads =
    Array.init nworkers (fun i -> Thread.create (body_of i) ())
  in
  Array.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let total = merge_counts per_worker in
  let result =
    {
      mode;
      target;
      requests = total.requests;
      errors = total.errors;
      timeouts = total.timeouts;
      codes =
        List.sort compare
          (Hashtbl.fold (fun c n acc -> (c, n) :: acc) total.codes []);
      wall_s;
      throughput =
        (if wall_s > 0.0 then float_of_int total.requests /. wall_s else 0.0);
      mean_s =
        (if total.requests > 0 then
           total.lat_sum /. float_of_int total.requests
         else nan);
      max_s = (if total.requests > 0 then total.lat_max else nan);
      p50_s = quantile_of registry 0.5;
      p90_s = quantile_of registry 0.9;
      p99_s = quantile_of registry 0.99;
    }
  in
  (match result_json result with
  | Json.Obj fields ->
      Ledger.record ~kind:"loadgen" ~wall_seconds:wall_s
        ~params:
          (mode_json mode
          @ [ ("target", Json.String target); ("meth", Json.String meth) ])
        ~outcome:(if result.errors = 0 && result.timeouts = 0 then "ok" else "errors")
        ~summary:fields ()
  | _ -> ());
  result

(* ---- measured vs. modeled ----

   The serve loop is one sequential server: calibrate its service rate
   with a few unloaded probes (µ̂ = 1/mean), then predict the loaded
   response time from the repo's own M/M/1 solver at the measured
   throughput. The point is not a tight fit — it is the paper's loop in
   miniature: measure, fit, predict, compare. *)

type comparison = {
  probes : int;
  mu_hat : float;
  lambda : float;  (* the measured throughput, used as the arrival rate *)
  predicted_response_s : float;  (* nan when λ ≥ µ̂ (modeled as unstable) *)
  measured_response_s : float;
}

let compare_model ?(probes = 30) ?(addr = "127.0.0.1") ?(timeout_s = 5.0)
    ?(meth = "GET") ?body ?(content_type = "application/json") ~port ~target
    result =
  if probes < 1 then invalid_arg "Loadgen.compare_model: probes must be >= 1";
  let sum = ref 0.0 and ok = ref 0 in
  for _ = 1 to probes do
    match fire ~addr ~timeout_s ~meth ~body ~content_type ~port ~target with
    | latency, `Status s when s >= 200 && s <= 299 ->
        sum := !sum +. latency;
        incr ok
    | _ -> ()
  done;
  if !ok = 0 then Error "calibration probes all failed"
  else
    let mu_hat = float_of_int !ok /. !sum in
    let lambda = result.throughput in
    let predicted_response_s =
      if lambda > 0.0 && lambda < mu_hat then
        Urs_mmq.Mmc.mean_response_time ~servers:1 ~lambda ~mu:mu_hat
      else nan
    in
    Ok
      {
        probes = !ok;
        mu_hat;
        lambda;
        predicted_response_s;
        measured_response_s = result.mean_s;
      }

let comparison_json c =
  Json.Obj
    [
      ("probes", Json.Int c.probes);
      ("mu_hat", Json.Float c.mu_hat);
      ("lambda", Json.Float c.lambda);
      ("predicted_response_s", Json.Float c.predicted_response_s);
      ("measured_response_s", Json.Float c.measured_response_s);
    ]
