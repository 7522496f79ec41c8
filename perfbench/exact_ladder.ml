(* exact-ladder: a closed loop with one caller and no solve cache. Each
   round makes cold Solver.evaluate exact solves of the paper model at
   N = 10 and 15 (s = 66, 136), every fourth round one at N = 20
   (s = 231), and each round one matrix-geometric solve at
   N = 10 (the independent oracle) and one approximate solve at N = 20.
   Rounds repeat until the time budget is spent. Each solve is timed
   between two reference products (see Common), so its time is also
   known at the reference speed. *)

open Common

let ladder = [ 10; 15; 20 ]
let tol = 1e-10

(* exact solves per round at each N: the small ones repeat so that their
   medians rest on many samples; the 3 s solve at N = 20, a detail,
   runs in every fourth round, from the first *)
let repeats ~round = function 10 -> 4 | 15 -> 2 | _ -> if round mod 4 = 0 then 1 else 0

type sample = {
  op : string;
  servers : int;
  span : interval;
  mean_jobs : float;
}

let solve ~strategy ~label m =
  let servers = m.Urs.Model.servers in
  (* every solve starts from a collected heap, so one solve's garbage is
     not charged to the next *)
  Gc.full_major ();
  let span, r =
    measured (fun () ->
        Trace.with_ ~req:(Trace.new_req ()) ~layer:"core"
          (Printf.sprintf "Solver.evaluate.%s.n%d" label servers)
          (fun () -> Urs.Solver.evaluate ~strategy m))
  in
  match r with
  | Ok p -> Ok { op = label; servers; span; mean_jobs = p.Urs.Solver.mean_jobs }
  | Error e -> Error (Format.asprintf "%s N=%d: %a" label servers Urs.Solver.pp_error e)

(* the load is the paper's 0.64, nudged by at most 1 % by the seed *)
let load_of_seed seed =
  let st = rng seed in
  0.64 *. (1.0 +. (0.02 *. (Random.State.float st 1.0 -. 0.5)))

(* set-up: build the three models and their QBD blocks, and answer the
   first N = 10 exact solve *)
let setup load =
  let models =
    List.map
      (fun n ->
        let m = Models.paper ~servers:n ~load in
        ignore (Option.get (Urs.Model.qbd m));
        m)
      ladder
  in
  ignore (Urs.Solver.evaluate (List.hd models));
  models

let run ~seed ~seconds =
  let load = load_of_seed seed in
  let setups = List.init 7 (fun _ -> fst (measured (fun () -> setup load))) in
  let models = setup load in
  let model n = List.find (fun m -> m.Urs.Model.servers = n) models in
  let samples = ref [] and rounds = ref 0 and errors = ref [] in
  let attempted = ref 0 in
  let add r =
    incr attempted;
    match r with
    | Ok s -> samples := s :: !samples
    | Error msg -> errors := msg :: !errors
  in
  let t_end = now () +. seconds in
  while !rounds = 0 || now () < t_end do
    Trace.with_ ~req:(Trace.new_req ()) ~layer:"bench" "round" (fun () ->
        List.iter
          (fun n ->
            for _ = 1 to repeats ~round:!rounds n do
              add (solve ~strategy:Urs.Solver.Exact ~label:"exact" (model n))
            done)
          ladder;
        add (solve ~strategy:Urs.Solver.Matrix_geometric ~label:"mg" (model 10));
        add (solve ~strategy:Urs.Solver.Approximate ~label:"approx" (model 20)));
    incr rounds
  done;
  let select f op n =
    List.filter_map (fun s -> if s.op = op && s.servers = n then Some (f s.span) else None) !samples
  in
  let walls = select wall and adjs = select at_reference in

  let last op n = List.find_opt (fun s -> s.op = op && s.servers = n) !samples in
  (* output checks, outside the timed window *)
  let problems = ref !errors in
  let check ok fmt =
    Printf.ksprintf
      (fun msg ->
        incr attempted;
        if not ok then problems := msg :: !problems)
      fmt
  in
  List.iter
    (fun n ->
      match Urs_mmq.Spectral.solve (Option.get (Urs.Model.qbd (model n))) with
      | Error e -> check false "spectral N=%d: %s" n (Format.asprintf "%a" Urs_mmq.Spectral.pp_error e)
      | Ok sp ->
          let res = Urs_mmq.Spectral.residual sp
          and defect = Urs_mmq.Spectral.mass_defect sp in
          check (res <= tol) "spectral N=%d residual %g > %g" n res tol;
          check (defect <= tol) "spectral N=%d mass defect %g > %g" n defect tol;
          note "check: N=%d residual %.3g, mass defect %.3g" n res defect)
    ladder;
  (match (last "exact" 10, last "mg" 10) with
  | Some e, Some g ->
      let d = Models.rel_diff e.mean_jobs g.mean_jobs in
      check (d <= tol) "spectral vs matrix-geometric L at N=10 differ by %g" d;
      note "check: spectral vs matrix-geometric L at N=10: rel. diff %.3g" d
  | _ -> check false "no N=10 exact/mg pair to compare");
  (match last "approx" 20 with
  | Some a ->
      check (Float.is_finite a.mean_jobs && a.mean_jobs > 0.0)
        "approximate L at N=20 is %g" a.mean_jobs
  | None -> check false "no approximate solve");
  let p50 op n = median (walls op n) in
  List.iter
    (fun n ->
      note "  exact N=%d samples: %s" n
        (String.concat " " (List.rev_map (Printf.sprintf "%.4f") (walls "exact" n))))
    ladder;
  let exp_fit =
    slope
      (List.map
         (fun n -> (log (float_of_int (Models.modes n)), log (p50 "exact" n)))
         ladder)
  in
  let details =
    List.concat_map
      (fun n ->
        [
          m (Printf.sprintf "exact_solve_s.n%d" n) "s" (p50 "exact" n);
          m (Printf.sprintf "exact_samples.n%d" n) "count"
            (float_of_int (List.length (walls "exact" n)));
        ])
      ladder
    @ [
        m "exact_scale_exp" "1" exp_fit;
        m "mg_solve_s.n10" "s" (p50 "mg" 10);
        m "approx_solve_s.n20" "s" (p50 "approx" 20);
        m "rounds" "count" (float_of_int !rounds);
        m "light_s.raw" "s" (median (walls "exact" 10));
        m "heavy_s.raw" "s" (median (walls "exact" 15));
        m "exact_solve_s.n20.at_reference" "s" (median (adjs "exact" 20));
        m "load" "1" load;
      ]
  in
  let metrics =
    [
      m "setup_s" "s" (median (List.map at_reference setups));
      m "peak_rss_mb" "MB" (peak_rss_mb "self");
      m "light_s" "s" (median (adjs "exact" 10));
      m "heavy_s" "s" (median (adjs "exact" 15));
      m "rate_per_s" "1/s" (1.0 /. (median (adjs "mg" 10) +. median (adjs "approx" 20)));
    ]
  in
  ( { attempted = !attempted; failed = List.length !problems; problems = !problems; metrics },
    details,
    [] )
