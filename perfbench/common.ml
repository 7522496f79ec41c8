(* Shared helpers: clocks, order statistics, process probes and the
   result line. *)

let now = Unix.gettimeofday

let note fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- order statistics ---- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* linear interpolation between closest ranks (type 7, as numpy) *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5


let sum xs = List.fold_left ( +. ) 0.0 xs

(* least-squares slope of y on x *)
let slope pts =
  let n = float_of_int (List.length pts) in
  let mx = sum (List.map fst pts) /. n and my = sum (List.map snd pts) /. n in
  let sxy = sum (List.map (fun (x, y) -> (x -. mx) *. (y -. my)) pts)
  and sxx = sum (List.map (fun (x, _) -> (x -. mx) ** 2.0) pts) in
  sxy /. sxx

let time f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* the text after the first occurrence of [pat] in [text] *)
let after text pat =
  let n = String.length text and k = String.length pat in
  let rec go i =
    if i + k > n then None
    else if String.sub text i k = pat then Some (String.sub text (i + k) (n - i - k))
    else go (i + 1)
  in
  go 0

(* ---- machine speed ----

   The two cores are shared with other work on the machine, and their
   speed swings by up to 1.8x in phases of a few seconds. A fixed
   reference computation that shares no code with urs, timed just
   before and just after an operation, tracks that speed: the
   operation's time at the reference speed is its wall time times the
   reference's nominal time over the reference time around it. A slower
   program moves the adjusted figure; a slower machine moves both and
   cancels. Each workload uses the reference closest to its own work. *)

(* a dense 160 x 160 float matrix product (8 Mflop); also the
   machine_ref_s detail *)
let ref_n = 160
let ref_a = Array.init ref_n (fun i -> Array.init ref_n (fun j -> float_of_int ((i * j) mod 7) +. 0.5))
let ref_b = Array.init ref_n (fun i -> Array.init ref_n (fun j -> float_of_int ((i + j) mod 5) -. 1.0))

let reference_kernel c =
  for i = 0 to ref_n - 1 do
    let ai = ref_a.(i) and ci = c.(i) in
    Array.fill ci 0 ref_n 0.0;
    for k = 0 to ref_n - 1 do
      let aik = ai.(k) and bk = ref_b.(k) in
      for j = 0 to ref_n - 1 do
        ci.(j) <- ci.(j) +. (aik *. bk.(j))
      done
    done
  done

(* median seconds of one reference product over three runs *)
let reference () =
  let c = Array.make_matrix ref_n ref_n 0.0 in
  median (List.init 3 (fun _ -> fst (time (fun () -> reference_kernel c))))

(* a sum over a 16 MB float array, for the memory traffic of the
   solvers' larger matrices. The array is made on first use, outside
   the OCaml heap: 16 MB of live data in the heap would let the
   collector grow the heap around the solves and change their cost. *)
let stream_data =
  lazy
    (let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 2_000_000 in
     Bigarray.Array1.fill a 1.0;
     a)

let stream_kernel () =
  let (a : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t) =
    Lazy.force stream_data
  in
  let sum = ref 0.0 in
  for i = 0 to Bigarray.Array1.dim a - 1 do
    sum := !sum +. Bigarray.Array1.unsafe_get a i
  done;
  ignore (Sys.opaque_identity !sum)

(* a branchy loop over a small array, for the simulator's event loop:
   200,000 pushes and pops, chosen at random, with LCG keys on a binary
   min-heap of floats of at most 32 entries (the simulator's event heap
   holds a few dozen) *)
let heap_slots = 32

let heap_kernel () =
  let heap = Array.make heap_slots 0.0 in
  let x = ref 12345 and size = ref 0 and acc = ref 0.0 in
  for _ = 1 to 200_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let v = float_of_int !x in
    if !size = 0 || (!size < heap_slots && (!x lsr 20) land 1 = 0) then begin
      let i = ref !size in
      incr size;
      while !i > 0 && heap.((!i - 1) / 2) > v do
        heap.(!i) <- heap.((!i - 1) / 2);
        i := (!i - 1) / 2
      done;
      heap.(!i) <- v
    end
    else begin
      acc := !acc +. heap.(0);
      decr size;
      let last = heap.(!size) and i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        if l >= !size then sifting := false
        else
          let c = if l + 1 < !size && heap.(l + 1) < heap.(l) then l + 1 else l in
          if heap.(c) < last then begin
            heap.(!i) <- heap.(c);
            i := c
          end
          else sifting := false
      done;
      heap.(!i) <- last
    end
  done;
  ignore (Sys.opaque_identity !acc)

(* the heap loop on both cores at once, timed as the slower of the two:
   work spread over both cores waits for its slower half. Each half
   times itself, so starting the second domain is not counted, and the
   domain ends with the run, so no idle domain is left to join the
   program's collections. *)
let heap_kernel2 () =
  let d = Domain.spawn (fun () -> fst (time heap_kernel)) in
  let mine = fst (time heap_kernel) in
  Float.max mine (Domain.join d)

(* a reference: one timed run of it; its nominal time, a fixed scale
   close to its time on a quiet core of the machine the benchmark was
   calibrated on (a 2.1 GHz Xeon); and every run of it in this process
   (when it started, and its time) *)
type speed = { probe : unit -> float; nominal : float; mutable log : (float * float) list }

let median3 f = median (List.init 3 (fun _ -> fst (time f)))

(* the solvers' reference is the geometric mean of the matrix product's
   time and the array sum's: a solve at N = 15 is partly arithmetic and
   partly memory traffic, and while the machine was at its noisiest the
   mean followed it better than either (block medians of the N = 15
   solve spread 2-4 % against 5-6 % for the product alone) *)
let dense =
  { probe = (fun () -> sqrt (reference () *. median3 stream_kernel)); nominal = 0.004; log = [] }

let heap1 = { probe = (fun () -> median3 heap_kernel); nominal = 0.0045; log = [] }

let heap2 =
  { probe = (fun () -> median (List.init 3 (fun _ -> heap_kernel2 ()))); nominal = 0.0085; log = [] }

let probe_speed sp =
  let t = now () in
  sp.log <- (t, sp.probe ()) :: sp.log

(* a measured interval, with reference runs just before and after it *)
type interval = { t0 : float; t1 : float; speed : speed }

let measured ?(speed = dense) f =
  probe_speed speed;
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  probe_speed speed;
  ({ t0; t1; speed }, r)

let wall i = i.t1 -. i.t0

(* how much faster the machine ran around the interval than on the
   calibration machine: the nominal reference time over the median
   reference time of the runs within a second of it (or within the
   interval's own length, if longer); read it once the run is measured *)
let speed_factor i =
  let w = Float.max 1.0 (wall i) in
  let near =
    List.filter_map
      (fun (t, r) -> if t >= i.t0 -. w && t <= i.t1 +. w then Some r else None)
      i.speed.log
  in
  i.speed.nominal /. median near

(* the interval's wall time at the reference speed *)
let at_reference i = wall i *. speed_factor i

(* ---- GC accounting (words allocated by the calling domain) ---- *)

type gc = { minor_words : float; major_words : float; major_collections : int }

let gc_sample () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    major_collections = s.Gc.major_collections;
  }

let gc_delta ~before ~after =
  {
    minor_words = after.minor_words -. before.minor_words;
    major_words = after.major_words -. before.major_words;
    major_collections = after.major_collections - before.major_collections;
  }

(* ---- /proc probes ---- *)

let proc_field pid key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> None
        | line ->
            if String.starts_with ~prefix:(key ^ ":") line then
              Scanf.sscanf
                (String.sub line (String.length key + 1)
                   (String.length line - String.length key - 1))
                " %d" (fun kb -> Some (float_of_int kb /. 1024.0))
            else go ()
      in
      let r = go () in
      close_in ic;
      r

(* peak resident set (VmHWM) in MB *)
let peak_rss_mb pid = Option.value ~default:nan (proc_field pid "VmHWM")

(* user + system CPU seconds of a process, from /proc/PID/stat
   (clock ticks at the usual USER_HZ of 100) *)
let cpu_seconds pid =
  match open_in (Printf.sprintf "/proc/%d/stat" pid) with
  | exception Sys_error _ -> nan
  | ic ->
      let line = input_line ic in
      close_in ic;
      (* fields after the parenthesised command name *)
      let rest =
        String.sub line
          (String.rindex line ')' + 2)
          (String.length line - String.rindex line ')' - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (* utime and stime are fields 14 and 15, i.e. 11 and 12 here *)
      (float_of_string f.(11) +. float_of_string f.(12)) /. 100.0

(* ---- output directory (inside the checkout, ignored by git) ---- *)

let out_dir = "_perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* ---- results ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* a workload's outcome: the operations it attempted and failed (a
   failed output check counts as a failed operation), the notes that
   explain failed checks, and its metrics *)
type outcome = {
  attempted : int;
  failed : int;
  problems : string list;
  metrics : metric list;
}

let result_line o =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
  in
  let ms =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
      o.metrics
  in
  let finite = List.for_all (fun x -> Float.is_finite x.value) o.metrics in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.failed = 0 && o.problems = [] && finite)
    o.attempted o.failed (String.concat ", " ms)

(* a seeded PRNG for the benchmark's own input generation *)
let rng seed = Random.State.make [| 0x5eed; seed |]
