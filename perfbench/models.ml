(* The paper's model (§4): fitted H2 operative periods, exponential
   repairs at rate 25, unit service rate, unlimited repair crews. Load is
   the offered load over the mean number of operative servers. *)

let paper ~servers ~load =
  let base =
    Urs.Model.create ~servers ~arrival_rate:1.0 ~service_rate:1.0
      ~operative:Urs.Model.paper_operative
      ~inoperative:Urs.Model.paper_inoperative_exp ()
  in
  let env = Option.get (Urs.Model.environment base) in
  let capacity = float_of_int servers *. Urs_mmq.Environment.availability env in
  Urs.Model.with_arrival_rate base (load *. capacity)

(* N -> s = C(N+2, 2) for the paper's two operative and one inoperative
   phase *)
let modes servers =
  Urs_mmq.Environment.count_modes ~servers ~op_phases:2 ~inop_phases:1

let rel_diff a b = Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)
