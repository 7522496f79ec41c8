(* The repository benchmark. One run measures one workload:

     main.exe --workload exact-ladder|sim-fig8|serve-mix --seed N
       --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics. With --trace 1 it
   runs the workload for half the budget untraced and half with spans
   on, then runs the layer probes (with a short sim-fig8 and serve-mix
   session when those are not the workload itself), writes every span
   to _perfbench/trace-WORKLOAD-seedN.json, and prints the per-layer
   metrics. The last line of stdout is one JSON object with the keys
   correct, attempted, failed and metrics. *)

open Common

let usage =
  "main.exe --workload exact-ladder|sim-fig8|serve-mix --seed N --seconds S \
   --trace 0|1"

let workloads =
  [
    ("exact-ladder", fun ~seed ~seconds -> Exact_ladder.run ~seed ~seconds);
    ("sim-fig8", fun ~seed ~seconds -> Sim_fig8.run ~seed ~seconds);
    ("serve-mix", fun ~seed ~seconds -> Serve_mix.run ~seed ~seconds ());
  ]

(* the operations and checks of several runs, under new metrics *)
let combine outcomes metrics =
  {
    attempted = List.fold_left (fun n o -> n + o.attempted) 0 outcomes;
    failed = List.fold_left (fun n o -> n + o.failed) 0 outcomes;
    problems = List.concat_map (fun o -> o.problems) outcomes;
    metrics;
  }

let value name o = (List.find (fun x -> x.name = name) o.metrics).value

let print_metrics title xs =
  note "%s" title;
  List.iter (fun x -> note "  %-36s %14.6g %s" x.name x.value x.unit_) xs

let traced ~workload ~run ~seed ~seconds =
  let half = seconds /. 2.0 in
  let plain, _, _ = run ~seed ~seconds:half in
  Trace.enabled := true;
  let o, details, own = run ~seed ~seconds:half in
  (* the sim and serve figures come from the workload itself when it is
     that workload, else from a short session of it *)
  let layers_of name short =
    if name = workload then (own, [])
    else
      let o', _, l = short () in
      (l, [ o' ])
  in
  let sim, o_sim = layers_of "sim-fig8" (fun () -> Sim_fig8.run ~seed ~seconds:2.0) in
  let serve, o_serve =
    layers_of "serve-mix" (fun () -> Serve_mix.run ~setups:1 ~seed ~seconds:5.0 ())
  in
  let body = Serve_mix.sample_body seed in
  let response = (Urs.Solve_service.handle [] ~body).Urs_obs.Http.body in
  let probes =
    Probes.linalg () @ Probes.mmq () @ Probes.core body @ Probes.obs ~response @ Probes.prob ()
  in
  let self = Trace.self_times () in
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  Trace.write path;
  note "spans written to %s" path;
  let overhead = (value "heavy_s" o /. value "heavy_s" plain) -. 1.0 in
  let metrics =
    probes @ sim @ serve
    @ List.map (fun (layer, s) -> m ("self_s." ^ layer) "s" s) self
    @ [ m "bench.trace_overhead_ratio" "1" overhead ]
  in
  (combine ((plain :: o :: o_sim) @ o_serve) metrics, o.metrics @ details)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the generated inputs");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 traced run with per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  ensure_dir out_dir;
  let o, details =
    match !trace with
    | 0 ->
        let o, details, _ = run ~seed:!seed ~seconds:!seconds in
        (o, details)
    | 1 -> traced ~workload:!workload ~run ~seed:!seed ~seconds:!seconds
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let details = details @ [ m "machine_ref_s" "s" (reference ()) ] in
  print_metrics "details:" details;
  print_metrics "metrics:" o.metrics;
  (* the full record, details included, stays under _perfbench/ *)
  let path =
    Filename.concat out_dir
      (Printf.sprintf "result-%s-seed%d-trace%d.json" !workload !seed !trace)
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (result_line { o with metrics = o.metrics @ details } ^ "\n"));
  List.iter (fun p -> note "FAILED CHECK: %s" p) o.problems;
  print_endline (result_line o)
