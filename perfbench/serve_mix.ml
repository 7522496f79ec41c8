(* serve-mix: seeded traffic against a child `urs serve --jobs 2`
   process that journals to a rotating ledger with batched flushes in a
   temporary directory under _perfbench/.

   About 75 % of the bodies repeat a small hot set that set-up warms, so
   they hit the solve cache; about 20 % are unique exact models with
   N in 3..6 and a seeded arrival rate, which miss the cache, insert and
   eventually evict; about 5 % are unique short simulation requests,
   which put the server's pool on the request path.

   The timed phase is a closed loop with [clients] requests in flight,
   run as one-second chunks: 0.7 s of the mix, then 0.3 s of hot-set
   bodies alone. A two-core heap reference run (see Common) goes before
   every chunk, and each request's latency is scaled to the reference
   speed of its chunk; the figures are medians over all requests of a
   kind. Traced runs add open-loop Poisson arrivals at [low_rate] and
   at [high_rate], and an open-loop rate ladder that
   climbs while the service objectives (p99 < 250 ms, error rate < 1 %)
   hold and the generator keeps up. *)

open Common

let binary = "_build/default/bin/urs_cli.exe"
let low_rate = 150.0
let high_rate = 400.0
let clients = 4
let ladder = [ 450.; 500.; 550.; 600.; 650.; 700.; 750.; 800.; 900.; 1000.; 1100.; 1250. ]
let step_seconds = 1.5
let p99_limit = 0.25
let error_limit = 0.01

(* ---- request bodies ---- *)

type kind = Hot | Miss | Sim

let kind_name = function Hot -> "hot" | Miss -> "miss" | Sim -> "sim"

type spec = {
  kind : kind;
  model : Urs.Model.t;  (** built here, for the output check *)
  strategy : Urs.Solver.strategy;
  body : string;
}

(* distributions in the request syntax, with the same law built here *)
let operative =
  ("h2:0.7246,0.1663,0.0091", Urs_prob.Distribution.h2 ~w1:0.7246 ~r1:0.1663 ~r2:0.0091)

let repair_exp = ("exp:25", Urs_prob.Distribution.exponential ~rate:25.0)

let repair_h2 =
  ("h2:0.9303,25.0043,1.6346", Urs_prob.Distribution.h2 ~w1:0.9303 ~r1:25.0043 ~r2:1.6346)

let spec kind st ~servers ~strategy ~inoperative =
  (* a load of 0.3..0.9 of the mean operative servers (availability is
     above 0.997 for both repair laws) *)
  let load = 0.3 +. Random.State.float st 0.6 in
  let lambda = load *. float_of_int servers *. 0.9988 in
  let model =
    Urs.Model.create ~servers ~arrival_rate:lambda ~service_rate:1.0
      ~operative:(snd operative) ~inoperative:(snd inoperative) ()
  in
  let strategy_json =
    match strategy with
    | Urs.Solver.Exact -> "\"exact\""
    | Urs.Solver.Approximate -> "\"approx\""
    | Urs.Solver.Matrix_geometric -> "\"mg\""
    | Urs.Solver.Simulation o ->
        Printf.sprintf
          "\"sim\", \"sim\": {\"duration\": %.17g, \"replications\": %d, \"seed\": %d}"
          o.Urs.Solver.duration o.replications o.seed
  in
  let body =
    Printf.sprintf
      "{\"servers\": %d, \"lambda\": %.17g, \"mu\": 1, \"operative\": %S, \
       \"inoperative\": %S, \"strategy\": %s}"
      servers lambda (fst operative) (fst inoperative) strategy_json
  in
  { kind; model; strategy; body }

let hot_set st =
  Array.init 16 (fun i ->
      let strategy =
        match i mod 8 with
        | 6 -> Urs.Solver.Approximate
        | 7 -> Urs.Solver.Matrix_geometric
        | _ -> Urs.Solver.Exact
      in
      let inoperative = if i mod 5 = 4 then repair_h2 else repair_exp in
      spec Hot st ~servers:(3 + (i mod 6)) ~strategy ~inoperative)

(* one request body drawn from the mix *)
let draw st hot =
  let u = Random.State.float st 1.0 in
  if u < 0.75 then hot.(Random.State.int st (Array.length hot))
  else if u < 0.95 then
    spec Miss st ~servers:(3 + Random.State.int st 4) ~strategy:Urs.Solver.Exact
      ~inoperative:repair_exp
  else
    spec Sim st ~servers:(3 + Random.State.int st 3)
      ~strategy:
        (Urs.Solver.Simulation
           { duration = 1_000.0; replications = 2; seed = 1 + Random.State.int st 1_000_000 })
      ~inoperative:repair_exp

(* a hot-set body of the given seed, for the layer probes *)
let sample_body seed = (hot_set (rng seed)).(0).body

(* ---- the server child ---- *)

type server = { pid : int; port : int; dir : string }

let start_server dir =
  ensure_dir dir;
  let out = Filename.concat dir "serve.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process binary
      [|
        binary; "serve"; "--port"; "0"; "--jobs"; "2"; "--ledger";
        Filename.concat dir "ledger.jsonl"; "--ledger-max-bytes"; "1048576";
        "--ledger-keep"; "3"; "--ledger-flush-every"; "64";
      |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let deadline = now () +. 60.0 in
  let rec wait_port () =
    let text = In_channel.with_open_bin out In_channel.input_all in
    match Option.bind (after text "serving http://127.0.0.1:") (fun rest ->
              try Scanf.sscanf rest "%d" Option.some with _ -> None) with
    | Some port -> port
    | None ->
        if now () > deadline then failwith ("urs serve did not come up; see " ^ out);
        if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
          failwith ("urs serve exited early; see " ^ out);
        Unix.sleepf 0.005;
        wait_port ()
  in
  { pid; port = wait_port (); dir }

(* SIGTERM lets the server flush and close its ledger; SIGKILL after
   10 s; then reap it and delete its directory *)
let stop_server s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] s.pid)
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
  in
  reap ();
  remove_tree s.dir

(* set-up: start the server, wait until it listens and warm the hot set
   into its cache, one request at a time *)
let setup dir hot =
  let s = start_server dir in
  (try
     Array.iter
       (fun h ->
         let one = [| { Loadgen.due = 0.0; body = h.body; tag = 0 } |] in
         ignore (Loadgen.run ~port:s.port ~start:(now ()) one))
       hot
   with e ->
     stop_server s;
     raise e);
  s

(* ---- phases of traffic ---- *)

(* one reply, with the response fields the benchmark reads *)
type answer = {
  spec : spec;
  reply : Loadgen.reply;
  latency : float;  (** from the due time *)
  lag : float;  (** how late the request was sent *)
  hit : bool option;
  solve_s : float option;  (** the server's [solve_seconds] *)
  mean_jobs : float option;
}

type phase = { label : string; rate : float; answers : answer list }

let answer start spec (reply : Loadgen.reply) =
  let json = Result.to_option (Urs_obs.Json.of_string reply.response) in
  let field path =
    List.fold_left (fun acc k -> Option.bind acc (Urs_obs.Json.member k)) json path
  in
  let num path = Option.bind (field path) Urs_obs.Json.to_float_opt in
  {
    spec;
    reply;
    latency = reply.finished -. (start +. reply.req.due);
    lag = reply.sent -. (start +. reply.req.due);
    hit = (match field [ "cache"; "hit" ] with Some (Urs_obs.Json.Bool b) -> Some b | _ -> None);
    solve_s = num [ "solve_seconds" ];
    mean_jobs = num [ "performance"; "mean_jobs" ];
  }

(* spans for a phase's requests, under one span for the phase *)
let trace_phase label start spec_of replies =
  let parent =
    Trace.record ~req:(Trace.new_req ()) ~layer:"bench" ("traffic." ^ label) start (now ())
  in
  List.iter
    (fun (r : Loadgen.reply) ->
      let req = Trace.new_req () and due = start +. r.req.due in
      let post =
        Trace.record ~parent ~req ~layer:"obs"
          ("POST /solve " ^ kind_name (spec_of r.req.tag).kind)
          due r.finished
      in
      ignore (Trace.record ~parent:post ~req ~layer:"bench" "generator.lag" due r.sent))
    replies

let phase label rate start spec_of replies =
  trace_phase label start spec_of replies;
  {
    label;
    rate;
    answers = List.map (fun (r : Loadgen.reply) -> answer start (spec_of r.req.tag) r) replies;
  }

(* open loop at a fixed rate *)
let traffic st hot ~port ~label ~rate ~seconds =
  let dues = Array.of_list (Loadgen.poisson st ~rate ~seconds) in
  let specs = Array.map (fun _ -> draw st hot) dues in
  let reqs = Array.mapi (fun i due -> { Loadgen.due; body = specs.(i).body; tag = i }) dues in
  let start = now () in
  phase label rate start (Array.get specs) (Loadgen.run ~port ~start reqs)

(* closed loop with [clients] requests in flight, drawn from the mix or,
   with [~hot_only], from the hot set alone *)
let saturation ?(hot_only = false) st hot ~port ~seconds =
  let specs = Hashtbl.create 1024 in
  let body i =
    let s = if hot_only then hot.(Random.State.int st (Array.length hot)) else draw st hot in
    Hashtbl.replace specs i s;
    s.body
  in
  let start = now () in
  let replies = Loadgen.closed ~port ~start ~clients ~seconds body in
  phase (if hot_only then "hits" else "saturation") nan start (Hashtbl.find specs) replies

(* ---- statistics over answers ---- *)

let p99 xs = quantile xs 0.99
let latencies ?kind p =
  List.filter_map
    (fun a -> if Option.fold ~none:true ~some:(( = ) a.spec.kind) kind then Some a.latency else None)
    p.answers

let errors p = List.length (List.filter (fun a -> a.reply.status <> 200) p.answers)

(* how far a phase is from its objectives: above 1 when p99 latency,
   error rate or the generator's lag p90 is over its limit *)
let badness p =
  let n = float_of_int (max 1 (List.length p.answers)) in
  List.fold_left Float.max 0.0
    [
      p99 (latencies p) /. p99_limit;
      float_of_int (errors p) /. n /. error_limit;
      quantile (List.map (fun a -> a.lag) p.answers) 0.9 /. p99_limit;
    ]

let ok_phase p = p.answers <> [] && badness p < 1.0

(* the highest rate within the objectives over phases of rising rate,
   interpolated in log badness between the last passing and the first
   failing phase *)
let max_rate_in_slo steps =
  let rec go prev = function
    | [] -> Option.fold ~none:nan ~some:(fun p -> p.rate) prev
    | p :: rest -> (
        if ok_phase p then go (Some p) rest
        else
          match prev with
          | None -> p.rate /. badness p
          | Some q ->
              let bq = log (badness q) and bp = log (badness p) in
              q.rate +. ((p.rate -. q.rate) *. (0.0 -. bq) /. (bp -. bq)))
  in
  go None steps

let merge label rate phases = { label; rate; answers = List.concat_map (fun p -> p.answers) phases }

(* a phase of traffic and when it ran, for the speed of the machine
   around it *)
let timed_phase f =
  let t0 = now () in
  let p = f () in
  ({ t0; t1 = now (); speed = heap2 }, p)

(* the median latency over the chunks' requests, each at its chunk's
   reference speed *)
let chunk_latency ?kind chunks =
  median
    (List.concat_map
       (fun (i, p) -> List.map (fun l -> l *. speed_factor i) (latencies ?kind p))
       chunks)

(* successful completions per second over the chunks, at the reference
   speed *)
let chunk_rate chunks =
  let done_ = List.fold_left (fun n (_, p) -> n + List.length p.answers - errors p) 0 chunks in
  float_of_int done_ /. List.fold_left (fun t (i, _) -> t +. at_reference i) 0.0 chunks

(* output check, outside the timed window: every 200 response's
   mean_jobs is bit-identical to an in-process evaluation of the model
   the benchmark built, on each hot-set body and on a seeded 2 % sample
   of the unique bodies. Returns the number checked and the failures. *)
let check_answers ~seed answers =
  let sample = rng (seed + 1) and seen = Hashtbl.create 16 in
  let chosen =
    List.filter
      (fun a ->
        a.reply.status = 200
        &&
        match a.spec.kind with
        | Hot ->
            let first = not (Hashtbl.mem seen a.spec.body) in
            Hashtbl.replace seen a.spec.body ();
            first
        | Miss | Sim -> Random.State.float sample 1.0 < 0.02)
      answers
  in
  let problems =
    List.filter_map
      (fun a ->
        let want = (Urs.Solver.evaluate_exn ~strategy:a.spec.strategy a.spec.model).mean_jobs in
        match a.mean_jobs with
        | Some got when Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want) -> None
        | got ->
            Some
              (Printf.sprintf "%s body %s: mean_jobs %s, in-process %h" (kind_name a.spec.kind)
                 a.spec.body
                 (Option.fold ~none:"missing" ~some:(Printf.sprintf "%h") got)
                 want))
      chosen
  in
  (List.length chosen, problems)

(* ---- the workload ---- *)

(* the open-loop phases only the per-layer figures need: [low_rate],
   [high_rate] (with the server's CPU time over it) and the rate
   ladder *)
let load_sweep st hot server ~seconds =
  let port = server.port in
  let low = traffic st hot ~port ~label:"low" ~rate:low_rate ~seconds:(0.25 *. seconds) in
  let cpu0 = cpu_seconds server.pid in
  let high = traffic st hot ~port ~label:"high" ~rate:high_rate ~seconds:(0.25 *. seconds) in
  let cpu = cpu_seconds server.pid -. cpu0 in
  let budget = now () +. (0.3 *. seconds) in
  let rec climb acc = function
    | [] -> List.rev acc
    | rate :: rest ->
        let label = Printf.sprintf "ladder.%g" rate in
        let p = traffic st hot ~port ~label ~rate ~seconds:step_seconds in
        if ok_phase p && now () < budget then climb (p :: acc) rest else List.rev (p :: acc)
  in
  (low, high, cpu, climb [] ladder)

(* [all] is every answer; [mix] leaves out the hits-only chunks *)
let layer_metrics ~low ~high ~cpu ~steps ~mix all =
  let solve_s ?(from = all) ~hit () =
    List.filter_map (fun a -> if a.hit = Some hit then a.solve_s else None) from
  in
  let hits = List.length (solve_s ~from:mix ~hit:true ())
  and misses = List.length (solve_s ~from:mix ~hit:false ()) in
  let outside p =
    List.filter_map
      (fun a -> Option.map (fun s -> a.reply.finished -. a.reply.sent -. s) a.solve_s)
      p.answers
  in
  let queued p = List.map (fun a -> a.latency -. Option.value ~default:0.0 a.solve_s) p.answers in
  [
    m "core.cache_hit_ratio" "1" (float_of_int hits /. float_of_int (hits + misses));
    m "core.server_solve_s.hit.p50" "s" (median (solve_s ~hit:true ()));
    m "core.server_solve_s.miss.p50" "s" (median (solve_s ~hit:false ()));
    m "obs.http_overhead_s.p50" "s" (median (outside low));
    m "obs.queue_wait_s.p99.high" "s" (p99 (queued high));
    m "obs.server_cpu_s_per_req" "s" (cpu /. float_of_int (List.length high.answers));
    m "serve.solve_p99_s.low" "s" (p99 (latencies low));
    m "serve.solve_p99_s.high" "s" (p99 (latencies high));
    m "serve.max_rate_in_slo" "1/s" (max_rate_in_slo (high :: steps));
    m "bench.gen_lag_p99_s" "s" (p99 (List.map (fun a -> a.lag) (low.answers @ high.answers)));
    m "bench.requests_sent" "count" (float_of_int (List.length all));
    m "bench.requests_failed" "count"
      (float_of_int (List.length (List.filter (fun a -> a.reply.status <> 200) all)));
  ]

(* The end-to-end figures come from the chunks of the closed loop.
   (Latency at a low open-loop rate spread by over 20 % from run
   to run: an idle virtual core's wake-up time dominates it, and that
   depends on the host's load. A busy server never idles.) Traced runs
   add the open-loop phases and the per-layer figures. *)
let run ?(setups = 3) ~seed ~seconds () =
  let st = rng seed in
  let hot = hot_set st in
  ensure_dir out_dir;
  let dir k = Filename.concat out_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) k) in
  let setup_times =
    List.init (setups - 1) (fun k ->
        let t, s = measured ~speed:heap2 (fun () -> setup (dir k) hot) in
        stop_server s;
        t)
  in
  let t_setup, server = measured ~speed:heap2 (fun () -> setup (dir setups) hot) in
  let setups = t_setup :: setup_times in
  let chunks, sweep, rss =
    Fun.protect
      ~finally:(fun () -> stop_server server)
      (fun () ->
        (* a two-core reference run before every chunk pair and after
           the last one *)
        let chunk () =
          probe_speed heap2;
          let mix = timed_phase (fun () -> saturation st hot ~port:server.port ~seconds:0.7) in
          (mix, timed_phase (fun () ->
                    saturation ~hot_only:true st hot ~port:server.port ~seconds:0.3))
        in
        let chunks = List.init (max 1 (truncate seconds)) (fun _ -> chunk ()) in
        probe_speed heap2;
        let sweep = if !Trace.enabled then Some (load_sweep st hot server ~seconds) else None in
        (chunks, sweep, peak_rss_mb (string_of_int server.pid)))
  in
  let mixed = List.map fst chunks and hits = List.map snd chunks in
  let sat = merge "saturation" nan (List.map snd mixed) in
  let hit_phase = merge "hits" nan (List.map snd hits) in
  let swept = match sweep with Some (low, high, _, steps) -> low :: high :: steps | None -> [] in
  let phases = sat :: hit_phase :: swept in
  let all = List.concat_map (fun p -> p.answers) phases in
  let checked, problems = check_answers ~seed all in
  let failed_requests = List.length (List.filter (fun a -> a.reply.status <> 200) all) in
  List.iter
    (fun p ->
      let lat = latencies p in
      note "  %-14s rate %6.0f  n %5d  p50 %8.4f  p99 %8.4f  lag p90 %8.4f  errors %d" p.label
        p.rate (List.length lat) (median lat) (p99 lat)
        (quantile (List.map (fun a -> a.lag) p.answers) 0.9)
        (errors p))
    phases;
  note "check: %d responses compared bit-for-bit with in-process solves" checked;
  let details, layers =
    match sweep with
    | Some (low, high, cpu, steps) ->
        ( [
            m "solve_p50_s.low" "s" (median (latencies low));
            m "solve_p99_s.low" "s" (p99 (latencies low));
            m "solve_p50_s.high" "s" (median (latencies high));
            m "solve_p99_s.high" "s" (p99 (latencies high));
            m "max_rate_in_slo" "1/s" (max_rate_in_slo (high :: steps));
          ],
          let mix = List.concat_map (fun p -> p.answers) (sat :: swept) in
          layer_metrics ~low ~high ~cpu ~steps ~mix all )
    | None -> ([], [])
  in
  let details =
    details
    @ [
        m "setup_s.raw" "s" (median (List.map wall setups));
        m "light_s.raw" "s" (median (latencies hit_phase));
        m "heavy_s.raw" "s" (median (latencies ~kind:Miss sat));
        m "heap2_ref_s" "s" (median (List.map snd heap2.log));
      ]
  in
  let metrics =
    [
      m "setup_s" "s" (median (List.map at_reference setups));
      m "peak_rss_mb" "MB" rss;
      m "light_s" "s" (chunk_latency hits);
      m "heavy_s" "s" (chunk_latency ~kind:Miss mixed);
      m "rate_per_s" "1/s" (chunk_rate mixed);
    ]
  in
  ( {
      attempted = List.length all + checked;
      failed = failed_requests + List.length problems;
      problems;
      metrics;
    },
    details,
    layers )
