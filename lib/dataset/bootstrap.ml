module H2 = Urs_prob.Hyperexponential
module Fit = Urs_prob.Fit
module Pcg = Urs_prob.Pcg

type interval = { estimate : float; lo : float; hi : float }

type h2_intervals = {
  weight1 : interval;
  rate1 : interval;
  rate2 : interval;
  mean : interval;
  scv : interval;
  replicates : int;
  failed : int;
}

let fit_of samples =
  let ms = Urs_stats.Empirical.moments samples 3 in
  Fit.h2_of_three_moments ~m1:ms.(0) ~m2:ms.(1) ~m3:ms.(2)

let resample rng samples =
  let n = Array.length samples in
  Array.init n (fun _ -> samples.(Pcg.int rng n))

let percentile_interval ~confidence ~estimate values =
  let q = Urs_stats.Empirical.quantile values in
  let a = (1.0 -. confidence) /. 2.0 in
  { estimate; lo = q a; hi = q (1.0 -. a) }

let h2_fit ?(replicates = 200) ?(confidence = 0.95) ?(seed = 1) samples =
  if replicates < 10 then invalid_arg "Bootstrap.h2_fit: need >= 10 replicates";
  if confidence <= 0.0 || confidence >= 1.0 then
    invalid_arg "Bootstrap.h2_fit: confidence in (0,1)";
  match fit_of samples with
  | Error e -> Error e
  | Ok base ->
      let rng = Pcg.create seed in
      let w1s = ref [] and r1s = ref [] and r2s = ref [] in
      let means = ref [] and scvs = ref [] in
      let ok = ref 0 and failed = ref 0 in
      for _ = 1 to replicates do
        match fit_of (resample rng samples) with
        | Error _ -> incr failed
        | Ok fit ->
            incr ok;
            let w = H2.weights fit and r = H2.rates fit in
            w1s := w.(0) :: !w1s;
            r1s := r.(0) :: !r1s;
            r2s := r.(1) :: !r2s;
            means := H2.mean fit :: !means;
            scvs := H2.scv fit :: !scvs
      done;
      let iv estimate lst =
        percentile_interval ~confidence ~estimate (Array.of_list lst)
      in
      let w = H2.weights base and r = H2.rates base in
      Ok
        {
          weight1 = iv w.(0) !w1s;
          rate1 = iv r.(0) !r1s;
          rate2 = iv r.(1) !r2s;
          mean = iv (H2.mean base) !means;
          scv = iv (H2.scv base) !scvs;
          replicates = !ok;
          failed = !failed;
        }

let pp_interval ppf iv =
  Format.fprintf ppf "%.5g [%.5g, %.5g]" iv.estimate iv.lo iv.hi

let pp_h2_intervals ppf b =
  Format.fprintf ppf
    "@[<v 2>H2 fit with bootstrap intervals (%d replicates, %d failed):@,\
     weight1 = %a@,rate1   = %a@,rate2   = %a@,mean    = %a@,scv     = %a@]"
    b.replicates b.failed pp_interval b.weight1 pp_interval b.rate1
    pp_interval b.rate2 pp_interval b.mean pp_interval b.scv
