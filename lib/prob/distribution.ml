type t =
  | Exponential of Exponential.t
  | Hyperexponential of Hyperexponential.t
  | Erlang of Erlang.t
  | Deterministic of Deterministic.t
  | Uniform of Uniform_d.t
  | Weibull of Weibull.t
  | Lognormal of Lognormal.t
  | Phase_type of Phase_type.t

let exponential ~rate = Exponential (Exponential.create rate)

let hyperexponential ~weights ~rates =
  Hyperexponential (Hyperexponential.create ~weights ~rates)

let h2 ~w1 ~r1 ~r2 =
  Hyperexponential
    (Hyperexponential.create ~weights:[| w1; 1.0 -. w1 |] ~rates:[| r1; r2 |])

let erlang ~k ~rate = Erlang (Erlang.create ~k ~rate)

let deterministic v = Deterministic (Deterministic.create v)

let uniform ~lo ~hi = Uniform (Uniform_d.create ~lo ~hi)

let weibull ~shape ~scale = Weibull (Weibull.create ~shape ~scale)

let lognormal ~mu ~sigma = Lognormal (Lognormal.create ~mu ~sigma)

let phase_type ~alpha ~t_matrix = Phase_type (Phase_type.create ~alpha ~t_matrix)

let mean = function
  | Exponential d -> Exponential.mean d
  | Hyperexponential d -> Hyperexponential.mean d
  | Erlang d -> Erlang.mean d
  | Deterministic d -> Deterministic.mean d
  | Uniform d -> Uniform_d.mean d
  | Weibull d -> Weibull.mean d
  | Lognormal d -> Lognormal.mean d
  | Phase_type d -> Phase_type.mean d

let variance = function
  | Exponential d -> Exponential.variance d
  | Hyperexponential d -> Hyperexponential.variance d
  | Erlang d -> Erlang.variance d
  | Deterministic d -> Deterministic.variance d
  | Uniform d -> Uniform_d.variance d
  | Weibull d -> Weibull.variance d
  | Lognormal d -> Lognormal.variance d
  | Phase_type d -> Phase_type.variance d

let scv = function
  | Exponential d -> Exponential.scv d
  | Hyperexponential d -> Hyperexponential.scv d
  | Erlang d -> Erlang.scv d
  | Deterministic d -> Deterministic.scv d
  | Uniform d -> Uniform_d.scv d
  | Weibull d -> Weibull.scv d
  | Lognormal d -> Lognormal.scv d
  | Phase_type d -> Phase_type.scv d

let moment t k =
  match t with
  | Exponential d -> Exponential.moment d k
  | Hyperexponential d -> Hyperexponential.moment d k
  | Erlang d -> Erlang.moment d k
  | Deterministic d -> Deterministic.moment d k
  | Uniform d -> Uniform_d.moment d k
  | Weibull d -> Weibull.moment d k
  | Lognormal d -> Lognormal.moment d k
  | Phase_type d -> Phase_type.moment d k

let cdf t x =
  match t with
  | Exponential d -> Exponential.cdf d x
  | Hyperexponential d -> Hyperexponential.cdf d x
  | Erlang d -> Erlang.cdf d x
  | Deterministic d -> Deterministic.cdf d x
  | Uniform d -> Uniform_d.cdf d x
  | Weibull d -> Weibull.cdf d x
  | Lognormal d -> Lognormal.cdf d x
  | Phase_type d -> Phase_type.cdf d x

let pdf t x =
  match t with
  | Exponential d -> Exponential.pdf d x
  | Hyperexponential d -> Hyperexponential.pdf d x
  | Erlang d -> Erlang.pdf d x
  | Deterministic _ -> 0.0
  | Uniform d -> Uniform_d.pdf d x
  | Weibull d -> Weibull.pdf d x
  | Lognormal d -> Lognormal.pdf d x
  | Phase_type d -> Phase_type.pdf d x

let quantile t p =
  match t with
  | Exponential d -> Exponential.quantile d p
  | Hyperexponential d -> Hyperexponential.quantile d p
  | Erlang d -> Erlang.quantile d p
  | Deterministic d -> Deterministic.quantile d p
  | Uniform d -> Uniform_d.quantile d p
  | Weibull d -> Weibull.quantile d p
  | Lognormal d -> Lognormal.quantile d p
  | Phase_type d -> Phase_type.quantile d p

let as_hyperexponential = function
  | Exponential d ->
      Some
        (Hyperexponential.create ~weights:[| 1.0 |]
           ~rates:[| Exponential.rate d |])
  | Hyperexponential d -> Some d
  | Phase_type d ->
      (* a diagonal sub-generator with full initial mass is exactly a
         hyperexponential *)
      let k = Phase_type.phases d in
      let t = Phase_type.t_matrix d in
      let diagonal = ref true in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          if i <> j && Urs_linalg.Matrix.get t i j <> 0.0 then diagonal := false
        done
      done;
      let a = Phase_type.alpha d in
      let mass = Array.fold_left ( +. ) 0.0 a in
      if !diagonal && abs_float (mass -. 1.0) <= 1e-9 then
        let rates = Array.init k (fun i -> -.Urs_linalg.Matrix.get t i i) in
        Some (Hyperexponential.create ~weights:a ~rates)
      else None
  | Erlang _ | Deterministic _ | Uniform _ | Weibull _ | Lognormal _ -> None

let as_phase_type = function
  | Exponential d ->
      Some
        (Phase_type.of_hyperexponential
           (Hyperexponential.create ~weights:[| 1.0 |]
              ~rates:[| Exponential.rate d |]))
  | Hyperexponential d -> Some (Phase_type.of_hyperexponential d)
  | Erlang d -> Some (Phase_type.of_erlang d)
  | Phase_type d -> Some d
  | Deterministic _ | Uniform _ | Weibull _ | Lognormal _ -> None

let pp ppf = function
  | Exponential d -> Exponential.pp ppf d
  | Hyperexponential d -> Hyperexponential.pp ppf d
  | Erlang d -> Erlang.pp ppf d
  | Deterministic d -> Deterministic.pp ppf d
  | Uniform d -> Uniform_d.pp ppf d
  | Weibull d -> Weibull.pp ppf d
  | Lognormal d -> Lognormal.pp ppf d
  | Phase_type d -> Phase_type.pp ppf d
