(* Per-layer probes for the traced run. Each probe times calls into one
   layer's public functions from outside, at a fixed size, inside a
   benchmark span named after the call; counts and GC words are read at
   the same boundaries. Where a figure already has a counter or
   histogram in the program (QR sweeps, spectral stages, conjugate
   shortcuts) it is read back, not re-derived. *)

open Common

let span layer name f = Trace.with_ ~req:(Trace.new_req ()) ~layer name f

(* median wall time of [reps] calls, each in its own span *)
let timed ~reps layer name f =
  median
    (List.init reps (fun _ ->
         Gc.full_major ();
         fst (time (fun () -> span layer name f))))

(* mean wall time per call over a tight loop of [n] calls *)
let per_call layer name n f =
  let t, () = time (fun () -> span layer name (fun () -> for _ = 1 to n do ignore (f ()) done)) in
  t /. float_of_int n

let counter name = Option.value ~default:0.0 (Urs_obs.Metrics.value name)

let stage_sum stage =
  List.fold_left
    (fun acc (e : Urs_obs.Metrics.entry) ->
      match e.data with
      | Urs_obs.Metrics.Histogram_value h
        when e.name = "urs_spectral_stage_seconds" && List.mem ("stage", stage) e.labels ->
          acc +. h.sum
      | _ -> acc)
    0.0 (Urs_obs.Metrics.snapshot ())

let stages = [ "eigenvalues"; "eigenvectors"; "boundary"; "normalization" ]

let qbd n = Option.get (Urs.Model.qbd (Models.paper ~servers:n ~load:0.64))

let linalg () =
  let q = qbd 20 in
  let q0 = Urs_mmq.Qbd.q0 q and q1 = Urs_mmq.Qbd.q1 q and q2 = Urs_mmq.Qbd.q2 q in
  let sweeps0 = Urs_linalg.Qr_eig.total_sweeps () in
  Gc.full_major ();
  let eig_s, zs =
    time (fun () ->
        span "linalg" "Companion.eigenvalues_inside_unit_disk.n20" (fun () ->
            Urs_linalg.Companion.eigenvalues_inside_unit_disk ~q0 ~q1 ~q2 ()))
  in
  let sweeps = Urs_linalg.Qr_eig.total_sweeps () - sweeps0 in
  let z = zs.(Array.length zs - 1) in
  let clu_s =
    timed ~reps:5 "linalg" "Clu.left_null_vector.n20" (fun () ->
        ignore (Urs_linalg.Clu.left_null_vector (Urs_mmq.Qbd.char_poly_at q z)))
  in
  let block = Urs_mmq.Qbd.transition_block q 20 in
  let lu_s =
    timed ~reps:9 "linalg" "Lu.factor.n20" (fun () -> ignore (Urs_linalg.Lu.factor block))
  in
  let q5 = qbd 5 in
  let eig5 =
    timed ~reps:21 "linalg" "Companion.eigenvalues_inside_unit_disk.n5" (fun () ->
        ignore
          (Urs_linalg.Companion.eigenvalues_inside_unit_disk ~q0:(Urs_mmq.Qbd.q0 q5)
             ~q1:(Urs_mmq.Qbd.q1 q5) ~q2:(Urs_mmq.Qbd.q2 q5) ()))
  in
  [
    m "linalg.companion_eig_s.n20" "s" eig_s;
    m "linalg.qr_sweeps.n20" "count" (float_of_int sweeps);
    m "linalg.clu_left_null_s.n20" "s" clu_s;
    m "linalg.lu_factor_s.n20" "s" lu_s;
    m "linalg.companion_eig_s.n5" "s" eig5;
  ]

let mmq () =
  let solve n =
    let q = qbd n in
    Gc.full_major ();
    let st0 = List.map stage_sum stages and g0 = gc_sample () in
    let conj0 = counter "urs_spectral_conjugate_shortcuts_total" in
    let t, r =
      time (fun () ->
          span "mmq" (Printf.sprintf "Spectral.solve.n%d" n) (fun () -> Urs_mmq.Spectral.solve q))
    in
    let g = gc_delta ~before:g0 ~after:(gc_sample ()) in
    let st = List.map2 (fun a b -> b -. a) st0 (List.map stage_sum stages) in
    let sp = Result.get_ok r in
    let clu_calls =
      float_of_int (Array.length (Urs_mmq.Spectral.eigenvalues sp))
      -. (counter "urs_spectral_conjugate_shortcuts_total" -. conj0)
    in
    (t, st, g, clu_calls)
  in
  let t10, _, _, _ = solve 10 and t15, _, _, _ = solve 15 in
  let t20, st20, g20, clu20 = solve 20 in
  let m20 = Models.paper ~servers:20 ~load:0.64 in
  let env = Option.get (Urs.Model.environment m20) and lambda = m20.Urs.Model.arrival_rate in
  let build_s =
    timed ~reps:5 "mmq" "Qbd.create.n20" (fun () ->
        ignore (Urs_mmq.Qbd.create ~env ~lambda ~mu:1.0))
  in
  let q20 = qbd 20 in
  let geo_s =
    timed ~reps:3 "mmq" "Geometric.solve.n20" (fun () -> ignore (Urs_mmq.Geometric.solve q20))
  in
  let mg =
    Result.get_ok
      (span "mmq" "Matrix_geometric.solve.n10" (fun () ->
           Urs_mmq.Matrix_geometric.solve (qbd 10)))
  in
  [
    m "linalg.clu_calls.n20" "count" clu20;
    m "mmq.spectral_solve_s.n10" "s" t10;
    m "mmq.spectral_solve_s.n15" "s" t15;
    m "mmq.spectral_solve_s.n20" "s" t20;
  ]
  @ List.map2 (fun s v -> m (Printf.sprintf "mmq.stage_s.%s.n20" s) "s" v) stages st20
  @ [
      m "mmq.spectral_minor_words.n20" "words" g20.minor_words;
      m "mmq.spectral_major_words.n20" "words" g20.major_words;
      m "mmq.major_collections.n20" "count" (float_of_int g20.major_collections);
      m "mmq.mg_r_iterations.n10" "count"
        (float_of_int (Urs_mmq.Matrix_geometric.r_iterations mg));
      m "mmq.geometric_solve_s.n20" "s" geo_s;
      m "mmq.qbd_build_s.n20" "s" build_s;
    ]

let core hot_body =
  let m10 = Models.paper ~servers:10 ~load:0.64 in
  let q10 = qbd 10 in
  let evaluate =
    timed ~reps:9 "core" "Solver.evaluate.n10" (fun () -> ignore (Urs.Solver.evaluate m10))
  in
  let spectral =
    timed ~reps:9 "mmq" "Spectral.solve.n10" (fun () -> ignore (Urs_mmq.Spectral.solve q10))
  in
  let parse =
    per_call "core" "Solve_service.parse_request" 2000 (fun () ->
        Urs.Solve_service.parse_request hot_body)
  in
  [
    m "core.evaluate_overhead_s.n10" "s" (evaluate -. spectral);
    m "core.parse_request_s" "s" parse;
  ]

let obs ~response =
  let parsed = Result.get_ok (Urs_obs.Json.of_string response) in
  let parse =
    per_call "obs" "Json.of_string" 5000 (fun () -> Urs_obs.Json.of_string response)
  in
  let encode = per_call "obs" "Json.to_string" 5000 (fun () -> Urs_obs.Json.to_string parsed) in
  let dir = Filename.concat out_dir (Printf.sprintf "ledger-%d" (Unix.getpid ())) in
  ensure_dir dir;
  let store =
    Urs_obs.Ledger_store.open_ ~truncate:true ~max_bytes:1_048_576 ~keep:3 ~flush_every:64
      (Filename.concat dir "ledger.jsonl")
  in
  let line = String.trim response in
  let write =
    Fun.protect
      ~finally:(fun () ->
        Urs_obs.Ledger_store.close store;
        remove_tree dir)
      (fun () ->
        per_call "obs" "Ledger_store.write" 20_000 (fun () ->
            Urs_obs.Ledger_store.write store ~kind:"http.access" ~time:(now ()) line))
  in
  [
    m "obs.json_parse_s" "s" parse;
    m "obs.json_encode_s" "s" encode;
    m "obs.ledger_write_s" "s" write;
  ]

let prob () =
  let rate name d =
    let s = Urs_prob.Sampler.compile d and g = Urs_prob.Pcg.create 7 in
    let n = 2_000_000 in
    let acc = ref 0.0 in
    let t =
      per_call "prob" ("Sampler.sample." ^ name) n (fun () ->
          acc := !acc +. Urs_prob.Sampler.sample s g)
    in
    m ("prob.sampler_draws_per_s." ^ name) "1/s" (1.0 /. t)
  in
  [
    rate "h2" Urs.Model.paper_operative;
    rate "exp" Urs.Model.paper_inoperative_exp;
  ]
