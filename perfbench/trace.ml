(* The benchmark's own spans, recorded around its calls into each urs
   layer. Spans live in memory while the benchmark runs and are written
   out once at the end; with tracing off [with_] is a plain call.

   A span has a name, a layer, start and end times, the span that
   caused it ([parent], 0 for a root) and the id of the request or solve
   it belongs to ([req]). Spans opened with [with_] nest on a stack;
   [record] adds a finished span with explicit times and parent, which
   the asynchronous load generator needs. *)

type span = {
  id : int;
  parent : int;
  req : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []
let next_req = ref 0

let fresh_id () =
  incr next_id;
  !next_id

(* a new request/solve id for a tree of spans *)
let new_req () =
  incr next_req;
  !next_req

let current_req = ref 0

let record ?(parent = 0) ~req ~layer name t0 t1 =
  if !enabled then begin
    let id = fresh_id () in
    spans := { id; parent; req; name; layer; t0; t1 } :: !spans;
    id
  end
  else 0

let with_ ?req ~layer name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> 0 in
    let req = Option.value req ~default:!current_req in
    let saved_req = !current_req in
    current_req := req;
    stack := id :: !stack;
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Common.now () in
        stack := List.tl !stack;
        current_req := saved_req;
        spans := { id; parent; req; name; layer; t0; t1 } :: !spans)
      f
  end

(* the layers spans are attributed to: the urs libraries the benchmark
   calls into, and its own code *)
let layers = [ "linalg"; "mmq"; "core"; "sim"; "prob"; "exec"; "obs"; "bench" ]

(* per-layer self time: each span's duration minus the part of its
   interval that its children cover (concurrent children, as the load
   generator's requests are, are merged before subtracting) *)
let self_times () =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1))
    !spans;
  let covered id =
    let ivs = List.sort compare (Hashtbl.find_all children id) in
    let total, last =
      List.fold_left
        (fun (total, (a, b)) (c, d) ->
          if c > b then (total +. (b -. a), (c, d)) else (total, (a, Float.max b d)))
        (0.0, (0.0, 0.0)) ivs
    in
    total +. (snd last -. fst last)
  in
  let by_layer = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let self = s.t1 -. s.t0 -. covered s.id in
      Hashtbl.replace by_layer s.layer
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.layer)))
    !spans;
  List.map
    (fun l -> (l, Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    layers

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\": %d, \"parent\": %d, \"req\": %d, \"name\": %S, \"layer\": %S, \
         \"start\": %.6f, \"end\": %.6f}\n"
        (if i = 0 then "" else ",")
        s.id s.parent s.req s.name s.layer s.t0 s.t1)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc
