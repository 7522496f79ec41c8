(* The benchmark's own HTTP load generator. One thread drives
   every connection through Unix.select over non-blocking raw sockets,
   so the generator never needs more threads than there are cores and
   shares no code with the urs HTTP client.

   In the open loop, requests follow a schedule of due times fixed in
   advance (a seeded Poisson process); each is timed from its due time to
   the end of its response, so a stall in the server also charges the requests that
   queued behind it. [lag] records how late each request was actually
   sent. At most [max_open] connections are open at once; beyond that
   sends wait, and their lag grows. The closed loop keeps a fixed number
   of requests in flight, to measure how many the server completes per
   second. *)

type request = { due : float; body : string; tag : int }

type reply = {
  req : request;
  sent : float;  (** when the connect was issued *)
  finished : float;
  status : int;  (** 0 when the connection failed *)
  response : string;  (** the response body *)
}

let max_open = 512
let timeout_s = 30.0

type conn = {
  r : request;
  fd : Unix.file_descr;
  t_sent : float;
  mutable out : string;  (** request bytes not yet written *)
  buf : Buffer.t;
}

let render body =
  Printf.sprintf
    "POST /solve HTTP/1.0\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n\
     Content-Length: %d\r\n\r\n%s"
    (String.length body) body

(* status code and body of a complete HTTP/1.0 response *)
let parse_response s =
  let status =
    try Scanf.sscanf s "HTTP/%_d.%_d %d" (fun c -> c) with _ -> 0
  in
  let body =
    let rec find i =
      if i + 3 >= String.length s then ""
      else if String.sub s i 4 = "\r\n\r\n" then
        String.sub s (i + 4) (String.length s - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (status, body)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | Unix.Unix_error ((Unix.EINPROGRESS | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
  fd

(* Where requests come from: [pending ()] says whether more will come,
   [next_due ~open_] is the absolute time the next one may be sent given
   [open_] connections in flight, and [take ()] hands it over. *)
type source = {
  pending : unit -> bool;
  next_due : open_:int -> float;
  take : unit -> request;
}

(* Drive connections until the source is exhausted and every reply is
   in; replies come back in completion order. *)
let drive ~port src =
  let replies = ref [] in
  let open_ = Hashtbl.create 64 in
  let finish c status response =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Hashtbl.remove open_ c.fd;
    replies :=
      { req = c.r; sent = c.t_sent; finished = Unix.gettimeofday (); status; response }
      :: !replies
  in
  let chunk = Bytes.create 65536 in
  while src.pending () || Hashtbl.length open_ > 0 do
    (* issue everything that is due *)
    while
      src.pending ()
      && src.next_due ~open_:(Hashtbl.length open_) <= Unix.gettimeofday ()
      && Hashtbl.length open_ < max_open
    do
      let r = src.take () in
      let fd = connect port in
      Hashtbl.replace open_ fd
        { r; fd; t_sent = Unix.gettimeofday (); out = render r.body; buf = Buffer.create 512 }
    done;
    let writers = ref [] and readers = ref [] in
    Hashtbl.iter
      (fun fd c -> if c.out <> "" then writers := fd :: !writers else readers := fd :: !readers)
      open_;
    let wait =
      if src.pending () && Hashtbl.length open_ < max_open then
        Float.max 0.0 (src.next_due ~open_:(Hashtbl.length open_) -. Unix.gettimeofday ())
      else 0.05
    in
    let rd, wr, _ =
      try Unix.select !readers !writers [] (Float.min wait 0.05)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        let c = Hashtbl.find open_ fd in
        match Unix.write_substring fd c.out 0 (String.length c.out) with
        | n -> c.out <- String.sub c.out n (String.length c.out - n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error _ -> finish c 0 "")
      wr;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt open_ fd with
        | None -> ()
        | Some c -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                let status, body = parse_response (Buffer.contents c.buf) in
                finish c status body
            | n -> Buffer.add_subbytes c.buf chunk 0 n
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
            | exception Unix.Unix_error _ -> finish c 0 ""))
      rd;
    (* give up on connections that have hung *)
    let now = Unix.gettimeofday () in
    let stale =
      Hashtbl.fold (fun _ c acc -> if now -. c.t_sent > timeout_s then c :: acc else acc) open_ []
    in
    List.iter (fun c -> finish c 0 "") stale
  done;
  List.rev !replies

(* open loop: send every request at its due time (relative to [start]) *)
let run ~port ~start (reqs : request array) =
  let next = ref 0 in
  drive ~port
    {
      pending = (fun () -> !next < Array.length reqs);
      next_due = (fun ~open_:_ -> start +. reqs.(!next).due);
      take =
        (fun () ->
          incr next;
          reqs.(!next - 1));
    }

(* closed loop: [clients] callers each send their next request as soon
   as the previous reply is in, until [start +. seconds]; a request's
   due time is when it was sent. [body i] is the i-th request's body. *)
let closed ~port ~start ~clients ~seconds body =
  let next = ref 0 in
  drive ~port
    {
      pending = (fun () -> Unix.gettimeofday () < start +. seconds);
      next_due = (fun ~open_ -> if open_ < clients then 0.0 else infinity);
      take =
        (fun () ->
          incr next;
          { due = Unix.gettimeofday () -. start; body = body (!next - 1); tag = !next - 1 });
    }

(* due times of a Poisson process of [rate] per second over [seconds],
   starting 50 ms after the phase starts, so the first sends are not
   already late *)
let poisson st ~rate ~seconds =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float st 1.0) /. rate) in
    if t >= seconds then List.rev acc else go t ((0.05 +. t) :: acc)
  in
  go 0.0 []
