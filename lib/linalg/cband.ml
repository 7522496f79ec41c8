(* Complex band LU with partial pivoting, in the LAPACK gbtrf scheme.
   Row i of the flat re/im arrays holds columns i−kl … i+kl+ku: the
   band itself plus kl columns of room for the fill-in that row swaps
   bring into U. Entry (i, j) lives at i·w + (j − i + kl), w = 2kl+ku+1.
   The multipliers of step k stay where they were computed (column k of
   rows k+1 … k+kl) and later swaps do not move them, so L is kept as
   the sequence P₀L₀P₁L₁… of swaps and Gauss transforms. *)

type t = {
  n : int;
  kl : int;
  ku : int;
  w : int;
  re : float array;
  im : float array;
}

type factor = { a : t; piv : int array; sign : int }

exception Singular = Clu.Singular

let create ~n ~kl ~ku =
  if n < 0 || kl < 0 || ku < 0 then invalid_arg "Cband.create: negative size";
  let kl = min kl (max 0 (n - 1)) and ku = min ku (max 0 (n - 1)) in
  let w = (2 * kl) + ku + 1 in
  { n; kl; ku; w; re = Array.make (n * w) 0.0; im = Array.make (n * w) 0.0 }

(* inlined so that callers filling a band pass unboxed floats *)
let[@inline] set a i j re im =
  if i < 0 || i >= a.n || j < 0 || j >= a.n || j < i - a.kl || j > i + a.ku
  then invalid_arg "Cband.set: entry outside the band";
  let k = (i * a.w) + (j - i + a.kl) in
  a.re.(k) <- re;
  a.im.(k) <- im

(* x·a, summed in increasing row order like Cmatrix.vec_mul, so the
   nonzero entries of the result are bit-identical to the dense product *)
let vec_mul x a =
  if Cvec.dim x <> a.n then invalid_arg "Cband.vec_mul: dimension mismatch";
  let yr = Array.make a.n 0.0 and yi = Array.make a.n 0.0 in
  for i = 0 to a.n - 1 do
    let (xi : Cx.t) = x.(i) in
    let xr = xi.Complex.re and xim = xi.Complex.im in
    if xr <> 0.0 || xim <> 0.0 then begin
      let base = (i * a.w) - i + a.kl in
      for j = max 0 (i - a.kl) to min (a.n - 1) (i + a.ku) do
        let ar = a.re.(base + j) and ai = a.im.(base + j) in
        yr.(j) <- yr.(j) +. ((xr *. ar) -. (xim *. ai));
        yi.(j) <- yi.(j) +. ((xr *. ai) +. (xim *. ar))
      done
    end
  done;
  Array.init a.n (fun j -> Cx.make yr.(j) yi.(j))

(* [patch]: when [Some eps], zero pivots are replaced by [eps] so the
   factorization always completes (inverse-iteration use). The pivot is
   the first largest |re| + |im| in rows k … k+kl, exactly the one dense
   partial pivoting picks: rows below the band hold zeros in column k. *)
let factor_general ?patch src =
  let a = { src with re = Array.copy src.re; im = Array.copy src.im } in
  let n = a.n and kl = a.kl and w = a.w and re = a.re and im = a.im in
  (* (i, j) is at base i + j *)
  let base i = (i * w) - i + kl in
  let piv = Array.init n (fun k -> k) in
  let sign = ref 1 in
  let patched = ref false in
  let singular = ref false in
  (try
     for k = 0 to n - 1 do
       let last_row = min (n - 1) (k + kl) in
       let last_col = min (n - 1) (k + kl + a.ku) in
       let bk = base k in
       let p = ref k in
       let best = ref (abs_float re.(bk + k) +. abs_float im.(bk + k)) in
       for i = k + 1 to last_row do
         let bi = base i in
         let v = abs_float re.(bi + k) +. abs_float im.(bi + k) in
         if v > !best then begin
           best := v;
           p := i
         end
       done;
       if !best = 0.0 then begin
         match patch with
         | None ->
             singular := true;
             raise Exit
         | Some eps ->
             re.(bk + k) <- eps;
             patched := true
       end;
       piv.(k) <- !p;
       if !p <> k then begin
         let bp = base !p in
         for j = k to last_col do
           let tr = re.(bk + j) and ti = im.(bk + j) in
           re.(bk + j) <- re.(bp + j);
           im.(bk + j) <- im.(bp + j);
           re.(bp + j) <- tr;
           im.(bp + j) <- ti
         done;
         sign := - !sign
       end;
       let pr = re.(bk + k) and pi = im.(bk + k) in
       let denom = (pr *. pr) +. (pi *. pi) in
       for i = k + 1 to last_row do
         let bi = base i in
         let ar = re.(bi + k) and ai = im.(bi + k) in
         if ar <> 0.0 || ai <> 0.0 then begin
           let fr = ((ar *. pr) +. (ai *. pi)) /. denom in
           let fi = ((ai *. pr) -. (ar *. pi)) /. denom in
           re.(bi + k) <- fr;
           im.(bi + k) <- fi;
           for j = k + 1 to last_col do
             let kr = re.(bk + j) and ki = im.(bk + j) in
             re.(bi + j) <- re.(bi + j) -. ((fr *. kr) -. (fi *. ki));
             im.(bi + j) <- im.(bi + j) -. ((fr *. ki) +. (fi *. kr))
           done
         end
       done
     done
   with Exit -> ());
  if !singular then None else Some ({ a; piv; sign = !sign }, !patched)

(* Cmatrix.max_abs over the band (Cx.modulus is Float.hypot), skipping
   the structural zeros a band of Q(z) is mostly made of *)
let max_abs a =
  let best = ref 0.0 in
  for k = 0 to Array.length a.re - 1 do
    let r = a.re.(k) and i = a.im.(k) in
    if r <> 0.0 || i <> 0.0 then best := Float.max !best (Float.hypot r i)
  done;
  !best

let factor_regularized a =
  let eps = 1e-300 +. (epsilon_float *. max_abs a) in
  match factor_general ~patch:eps a with
  | Some fp -> fp
  | None -> assert false

(* aᵀ x = b with a = P₀L₀P₁L₁…U: solve Uᵀ y = b forward, then undo
   each Gauss transform and swap in reverse order *)
let solve_transposed f b =
  let a = f.a in
  let n = a.n and kl = a.kl and w = a.w in
  if Cvec.dim b <> n then
    invalid_arg "Cband.solve_transposed: dimension mismatch";
  let base i = (i * w) - i + kl in
  let yr = Array.init n (fun i -> Cx.re b.(i)) in
  let yi = Array.init n (fun i -> Cx.im b.(i)) in
  for k = 0 to n - 1 do
    let bk = base k in
    let dr = a.re.(bk + k) and di = a.im.(bk + k) in
    let denom = (dr *. dr) +. (di *. di) in
    if denom = 0.0 then raise Singular;
    let xr = yr.(k) and xi = yi.(k) in
    let qr = ((xr *. dr) +. (xi *. di)) /. denom in
    let qi = ((xi *. dr) -. (xr *. di)) /. denom in
    yr.(k) <- qr;
    yi.(k) <- qi;
    for j = k + 1 to min (n - 1) (k + kl + a.ku) do
      let ur = a.re.(bk + j) and ui = a.im.(bk + j) in
      yr.(j) <- yr.(j) -. ((ur *. qr) -. (ui *. qi));
      yi.(j) <- yi.(j) -. ((ur *. qi) +. (ui *. qr))
    done
  done;
  for k = n - 2 downto 0 do
    let ar = ref yr.(k) and ai = ref yi.(k) in
    for i = k + 1 to min (n - 1) (k + kl) do
      let bi = base i in
      let lr = a.re.(bi + k) and li = a.im.(bi + k) in
      ar := !ar -. ((lr *. yr.(i)) -. (li *. yi.(i)));
      ai := !ai -. ((lr *. yi.(i)) +. (li *. yr.(i)))
    done;
    let p = f.piv.(k) in
    yr.(k) <- yr.(p);
    yi.(k) <- yi.(p);
    yr.(p) <- !ar;
    yi.(p) <- !ai
  done;
  Array.init n (fun i -> Cx.make yr.(i) yi.(i))

let left_null_vector a =
  let f, _ = factor_regularized a in
  Clu.inverse_iteration (solve_transposed f) a.n

let log_abs_det a =
  match factor_general a with
  | None -> (neg_infinity, Cx.zero)
  | Some ({ a = u; sign; _ }, _) ->
      let log_acc = ref 0.0 in
      let pr = ref (float_of_int sign) and pi = ref 0.0 in
      for k = 0 to u.n - 1 do
        let i = (k * u.w) + u.kl in
        let dr = u.re.(i) and di = u.im.(i) in
        let m = Float.hypot dr di in
        log_acc := !log_acc +. log m;
        (* multiply the running phase by d/|d|; exact ±1 for real d *)
        let ur = dr /. m and ui = di /. m in
        let r = (!pr *. ur) -. (!pi *. ui) in
        pi := (!pr *. ui) +. (!pi *. ur);
        pr := r
      done;
      (!log_acc, Cx.make !pr !pi)
