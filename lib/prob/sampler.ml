(* Compiled samplers: a [Distribution.t] pre-digested into flat floats
   and arrays so a hot loop can draw without re-reading the family
   records on every call. All per-family parameters (cumulative
   weights, phase jump tables) are computed once in [compile]; [sample]
   itself allocates nothing on the exponential / deterministic /
   uniform / Weibull / Erlang paths. *)

type t =
  | Exp of float (* rate *)
  | Det of float
  | Unif of float * float (* lo, hi *)
  | Weib of float * float (* inv_shape, scale *)
  | Logn of float * float (* mu, sigma *)
  | Erl of int * float (* stages, rate *)
  | Hyper of { cum : float array; total : float; rates : float array }
  | Ph of {
      k : int;
      alpha_cum : float array;
      total_rates : float array; (* -T_ii per phase *)
      jump_cum : float array; (* k*k row-major cumulative off-diagonal rates *)
    }

let compile (d : Distribution.t) : t =
  match d with
  | Exponential e -> Exp (Exponential.rate e)
  | Deterministic dd -> Det (Deterministic.value dd)
  | Uniform u -> Unif (Uniform_d.lo u, Uniform_d.hi u)
  | Weibull w -> Weib (1.0 /. Weibull.shape w, Weibull.scale w)
  | Lognormal l -> Logn (Lognormal.mu l, Lognormal.sigma l)
  | Erlang e -> Erl (Erlang.stages e, Erlang.rate e)
  | Hyperexponential h ->
      let weights = Hyperexponential.weights h in
      let n = Array.length weights in
      let cum = Array.make n 0.0 in
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. weights.(i);
        cum.(i) <- !acc
      done;
      Hyper { cum; total = !acc; rates = Array.copy (Hyperexponential.rates h) }
  | Phase_type p ->
      let k = Phase_type.phases p in
      let alpha = Phase_type.alpha p in
      let tm = Phase_type.t_matrix p in
      let alpha_cum = Array.make k 0.0 in
      let acc = ref 0.0 in
      for i = 0 to k - 1 do
        acc := !acc +. alpha.(i);
        alpha_cum.(i) <- !acc
      done;
      let total_rates =
        Array.init k (fun i -> -.Urs_linalg.Matrix.get tm i i)
      in
      (* jump_cum.(i*k + j): cumulative off-diagonal rate mass of row i up
         to column j; the diagonal contributes nothing, so a linear scan
         for [u < cum] can never select j = i. *)
      let jump_cum = Array.make (k * k) 0.0 in
      for i = 0 to k - 1 do
        let acc = ref 0.0 in
        for j = 0 to k - 1 do
          if j <> i then acc := !acc +. Urs_linalg.Matrix.get tm i j;
          jump_cum.((i * k) + j) <- !acc
        done
      done;
      Ph { k; alpha_cum; total_rates; jump_cum }

let sample t g =
  match t with
  | Exp rate -> Pcg.exponential g rate
  | Det v -> v
  | Unif (lo, hi) -> Pcg.uniform g lo hi
  | Weib (inv_shape, scale) ->
      let u = Pcg.float g in
      scale *. (-.log (1.0 -. u) ** inv_shape)
  | Logn (mu, sigma) -> exp (mu +. (sigma *. Pcg.normal g))
  | Erl (k, rate) ->
      (* product of uniforms avoids k calls to log *)
      let prod = ref 1.0 in
      for _ = 1 to k do
        prod := !prod *. Pcg.float_pos g
      done;
      -.log !prod /. rate
  | Hyper h ->
      let u = Pcg.float g *. h.total in
      let n = Array.length h.cum in
      let i = ref 0 in
      while !i < n - 1 && u >= h.cum.(!i) do
        incr i
      done;
      Pcg.exponential g h.rates.(!i)
  | Ph p ->
      (* pick the initial phase (defect mass absorbs immediately) *)
      let u = Pcg.float g in
      let phase = ref (-1) in
      let i = ref 0 in
      while !phase < 0 && !i < p.k do
        if u < p.alpha_cum.(!i) then phase := !i;
        incr i
      done;
      if !phase < 0 then 0.0
      else begin
        let time = ref 0.0 in
        let current = ref !phase in
        let absorbed = ref false in
        while not !absorbed do
          let i = !current in
          let total_rate = p.total_rates.(i) in
          time := !time +. Pcg.exponential g total_rate;
          let u = Pcg.float g *. total_rate in
          let next = ref (-1) in
          let j = ref 0 in
          while !next < 0 && !j < p.k do
            if u < p.jump_cum.((i * p.k) + !j) then next := !j;
            incr j
          done;
          if !next < 0 then absorbed := true else current := !next
        done;
        !time
      end
