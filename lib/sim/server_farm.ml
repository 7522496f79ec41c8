(* Allocation-free discrete-event core. The hot loop works entirely on
   preallocated unboxed storage: servers are struct-of-arrays, jobs live
   in a slot pool with a free list, the pending-event set is an
   {!Index_heap} of int tags, and randomness comes from the
   single-int-state {!Urs_prob.Pcg} through compiled
   {!Urs_prob.Sampler}s. Event handlers dispatch on an int kind, so a
   [?probe:None] run performs no per-event allocation in steady state;
   the only growth is doubling of pools when the system reaches a new
   high-water occupancy. Metric counters are accumulated as plain ints
   and flushed to the registry once per run. *)

module D = Urs_prob.Distribution
module Pcg = Urs_prob.Pcg
module Sampler = Urs_prob.Sampler
module Metrics = Urs_obs.Metrics

let m_arrivals =
  Metrics.counter ~help:"Jobs arrived across all simulation runs"
    "urs_sim_arrivals_total"

let m_completions =
  Metrics.counter ~help:"Jobs completed across all simulation runs"
    "urs_sim_completions_total"

let m_breakdowns =
  Metrics.counter ~help:"Server breakdowns across all simulation runs"
    "urs_sim_breakdowns_total"

let m_preemptions =
  Metrics.counter ~help:"Jobs preempted by a breakdown mid-service"
    "urs_sim_preemptions_total"

let m_repairs =
  Metrics.counter ~help:"Server repairs completed across all simulation runs"
    "urs_sim_repairs_total"

let m_events =
  Metrics.counter ~help:"Simulation events processed" "urs_sim_events_total"

let m_heap_hwm =
  Metrics.gauge ~help:"Event-heap high-water mark (process-wide)"
    "urs_sim_event_heap_high_water"

type config = {
  servers : int;
  lambda : float;
  mu : float;
  operative : D.t;
  inoperative : D.t;
  repair_crews : int option;
}

type result = {
  mean_jobs : float;
  mean_response : float;
  mean_operative : float;
  completed : int;
  measured_time : float;
  responses : float array;
  events : int;
}

let validate cfg =
  if cfg.servers < 1 then invalid_arg "Server_farm: servers must be >= 1";
  (match cfg.repair_crews with
  | Some c when c < 1 -> invalid_arg "Server_farm: repair_crews must be >= 1"
  | _ -> ());
  if cfg.lambda <= 0.0 then invalid_arg "Server_farm: lambda must be positive";
  if cfg.mu <= 0.0 then invalid_arg "Server_farm: mu must be positive";
  if D.mean cfg.operative <= 0.0 then
    invalid_arg "Server_farm: operative periods must have positive mean";
  if D.mean cfg.inoperative <= 0.0 then
    invalid_arg "Server_farm: inoperative periods must have positive mean"

(* event kinds; arrivals never enter the heap (see [clk.next_arrival]) *)
let k_completion = 1
let k_breakdown = 2
let k_repair = 3

(* Per-event float state lives in its own all-float record so
   assignments store raw floats instead of boxing into the mixed state
   record. Arrivals regenerate themselves in increasing time order, so
   the next one is a scalar compared against the heap top — roughly half
   of all events never pay for a heap push/sift. *)
type clk = { mutable now : float; mutable next_arrival : float }

type state = {
  n : int;
  lambda : float;
  mu : float;
  op : Sampler.t;
  inop : Sampler.t;
  rng : Pcg.t;
  (* servers, struct-of-arrays *)
  operative : bool array;
  epoch : int array; (* bumped on any change that invalidates a completion *)
  cur_job : int array; (* job slot in service, or -1 *)
  started : float array; (* service start time of cur_job *)
  (* job pool: slots recycled through a free-list stack *)
  mutable arrived : float array;
  mutable remaining : float array;
  mutable job_free : int array;
  mutable job_free_top : int;
  mutable next_job : int;
  queue : Int_deque.t; (* waiting job slots; preempted jobs re-enter front *)
  repair_queue : Int_deque.t; (* broken servers waiting for a crew *)
  mutable idle_crews : int;
  (* O(1) mirrors of the server arrays: operative servers, and operative
     servers currently holding a job *)
  mutable ops_up : int;
  mutable busy : int;
  coll : Collector.t;
  probe : Probe.t option;
  mutable in_system : int;
  heap : Index_heap.t;
  clk : clk;
  (* per-run tallies, flushed to the metrics registry at the end *)
  mutable events : int;
  mutable arrivals : int;
  mutable completions : int;
  mutable breakdowns : int;
  mutable preemptions : int;
  mutable repairs : int;
  mutable heap_max : int;
}

let[@inline] probe_jobs st =
  match st.probe with
  | Some p -> Probe.set_jobs p ~now:st.clk.now st.in_system
  | None -> ()

let[@inline] probe_ops st ops =
  match st.probe with
  | Some p -> Probe.set_operative p ~now:st.clk.now ops
  | None -> ()

let[@inline] sample_positive st s =
  (* guard against zero-length periods from degenerate distributions *)
  Float.max 1e-12 (Sampler.sample s st.rng)

let[@inline] schedule st ~delay ~kind ~server ~epoch =
  Index_heap.push st.heap ~time:(st.clk.now +. delay) ~kind ~server ~epoch;
  let sz = Index_heap.size st.heap in
  if sz > st.heap_max then st.heap_max <- sz

let first_idle_operative st =
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < st.n do
    if st.operative.(!i) && st.cur_job.(!i) < 0 then found := !i;
    incr i
  done;
  !found

let dispatch st =
  (* assign queued jobs to idle operative servers; [busy < ops_up]
     guarantees the scan finds one, so the common no-idle-server case
     exits without touching the server arrays at all *)
  while st.busy < st.ops_up && not (Int_deque.is_empty st.queue) do
    let srv = first_idle_operative st in
    let job = Int_deque.pop_front st.queue in
    st.cur_job.(srv) <- job;
    st.started.(srv) <- st.clk.now;
    st.busy <- st.busy + 1;
    st.epoch.(srv) <- st.epoch.(srv) + 1;
    schedule st ~delay:st.remaining.(job) ~kind:k_completion ~server:srv
      ~epoch:st.epoch.(srv)
  done

let grow_jobs st =
  let cap = Array.length st.arrived in
  let bigger = 2 * cap in
  let gf a =
    let b = Array.make bigger 0.0 in
    Array.blit a 0 b 0 cap;
    b
  in
  let gi a =
    let b = Array.make bigger 0 in
    Array.blit a 0 b 0 cap;
    b
  in
  st.arrived <- gf st.arrived;
  st.remaining <- gf st.remaining;
  st.job_free <- gi st.job_free

let[@inline] alloc_job st ~arrived ~remaining =
  let j =
    if st.job_free_top > 0 then begin
      st.job_free_top <- st.job_free_top - 1;
      st.job_free.(st.job_free_top)
    end
    else begin
      if st.next_job = Array.length st.arrived then grow_jobs st;
      let j = st.next_job in
      st.next_job <- st.next_job + 1;
      j
    end
  in
  st.arrived.(j) <- arrived;
  st.remaining.(j) <- remaining;
  j

let[@inline] free_job st j =
  st.job_free.(st.job_free_top) <- j;
  st.job_free_top <- st.job_free_top + 1

let on_completion st srv ep =
  (* a stale epoch means the server broke down (or was redispatched)
     after this completion was scheduled: ignore the event *)
  if st.epoch.(srv) = ep then begin
    let job = st.cur_job.(srv) in
    if job >= 0 then begin
      st.completions <- st.completions + 1;
      st.cur_job.(srv) <- -1;
      st.busy <- st.busy - 1;
      st.epoch.(srv) <- st.epoch.(srv) + 1;
      st.in_system <- st.in_system - 1;
      Collector.set_jobs st.coll ~now:st.clk.now st.in_system;
      probe_jobs st;
      Collector.record_response st.coll (st.clk.now -. st.arrived.(job));
      free_job st job;
      (* the dispatch invariant (no idle operative server while jobs
         queue) means [srv] is the only idle operative server right now,
         so the next queued job goes straight to it — same assignment
         dispatch's scan would make, without the scan *)
      if not (Int_deque.is_empty st.queue) then begin
        let next = Int_deque.pop_front st.queue in
        st.cur_job.(srv) <- next;
        st.started.(srv) <- st.clk.now;
        st.busy <- st.busy + 1;
        st.epoch.(srv) <- st.epoch.(srv) + 1;
        schedule st ~delay:st.remaining.(next) ~kind:k_completion ~server:srv
          ~epoch:st.epoch.(srv)
      end
    end
  end

let start_repair st srv =
  schedule st ~delay:(sample_positive st st.inop) ~kind:k_repair ~server:srv
    ~epoch:0

let on_breakdown st srv =
  st.breakdowns <- st.breakdowns + 1;
  st.operative.(srv) <- false;
  st.ops_up <- st.ops_up - 1;
  st.epoch.(srv) <- st.epoch.(srv) + 1;
  let job = st.cur_job.(srv) in
  if job >= 0 then begin
    (* preempt: the job keeps its residual work and rejoins the front *)
    st.preemptions <- st.preemptions + 1;
    st.remaining.(job) <-
      Float.max 0.0 (st.remaining.(job) -. (st.clk.now -. st.started.(srv)));
    st.cur_job.(srv) <- -1;
    st.busy <- st.busy - 1;
    Int_deque.push_front st.queue job
  end;
  Collector.record_operative st.coll ~now:st.clk.now st.ops_up;
  probe_ops st st.ops_up;
  if st.idle_crews > 0 then begin
    st.idle_crews <- st.idle_crews - 1;
    start_repair st srv
  end
  else Int_deque.push_back st.repair_queue srv;
  (* the preempted job may resume at once on another idle server *)
  dispatch st

let on_repair st srv =
  st.repairs <- st.repairs + 1;
  st.operative.(srv) <- true;
  st.ops_up <- st.ops_up + 1;
  Collector.record_operative st.coll ~now:st.clk.now st.ops_up;
  probe_ops st st.ops_up;
  schedule st ~delay:(sample_positive st st.op) ~kind:k_breakdown ~server:srv
    ~epoch:0;
  (* hand the freed crew to the next broken server, if any *)
  let next = Int_deque.pop_front st.repair_queue in
  if next >= 0 then start_repair st next else st.idle_crews <- st.idle_crews + 1;
  dispatch st

let on_arrival st =
  st.arrivals <- st.arrivals + 1;
  let job =
    alloc_job st ~arrived:st.clk.now
      ~remaining:(Pcg.exponential st.rng st.mu)
  in
  st.in_system <- st.in_system + 1;
  Collector.set_jobs st.coll ~now:st.clk.now st.in_system;
  probe_jobs st;
  (* dispatch invariant: an idle operative server implies an empty
     queue, so the new job either starts service immediately or queues —
     never both *)
  if st.busy < st.ops_up then begin
    let srv = first_idle_operative st in
    st.cur_job.(srv) <- job;
    st.started.(srv) <- st.clk.now;
    st.busy <- st.busy + 1;
    st.epoch.(srv) <- st.epoch.(srv) + 1;
    schedule st ~delay:st.remaining.(job) ~kind:k_completion ~server:srv
      ~epoch:st.epoch.(srv)
  end
  else Int_deque.push_back st.queue job;
  st.clk.next_arrival <- st.clk.now +. Pcg.exponential st.rng st.lambda

let drain st deadline =
  let h = st.heap in
  let c = st.clk in
  let continue_loop = ref true in
  while !continue_loop do
    let th =
      if Index_heap.is_empty h then infinity else Index_heap.top_time h
    in
    if c.next_arrival <= th then
      if c.next_arrival > deadline then continue_loop := false
      else begin
        c.now <- c.next_arrival;
        st.events <- st.events + 1;
        on_arrival st
      end
    else if th > deadline then continue_loop := false
    else begin
      let kind = Index_heap.top_kind h in
      let srv = Index_heap.top_server h in
      let ep = Index_heap.top_epoch h in
      Index_heap.drop h;
      c.now <- th;
      st.events <- st.events + 1;
      if kind = k_completion then on_completion st srv ep
      else if kind = k_breakdown then on_breakdown st srv
      else on_repair st srv
    end
  done;
  c.now <- deadline

let flush_metrics st =
  Metrics.inc ~by:(float_of_int st.arrivals) m_arrivals;
  Metrics.inc ~by:(float_of_int st.completions) m_completions;
  Metrics.inc ~by:(float_of_int st.breakdowns) m_breakdowns;
  Metrics.inc ~by:(float_of_int st.preemptions) m_preemptions;
  Metrics.inc ~by:(float_of_int st.repairs) m_repairs;
  Metrics.inc ~by:(float_of_int st.events) m_events;
  Metrics.set_max m_heap_hwm (float_of_int st.heap_max)

let run ?(seed = 1) ?warmup ?(track_responses = true) ?probe ~duration cfg =
  validate cfg;
  if duration <= 0.0 then
    invalid_arg "Server_farm.run: duration must be positive";
  let warmup = match warmup with Some w -> w | None -> 0.1 *. duration in
  if warmup < 0.0 then invalid_arg "Server_farm.run: negative warmup";
  let n = cfg.servers in
  let st =
    {
      n;
      lambda = cfg.lambda;
      mu = cfg.mu;
      op = Sampler.compile cfg.operative;
      inop = Sampler.compile cfg.inoperative;
      rng = Pcg.create seed;
      operative = Array.make n true;
      epoch = Array.make n 0;
      cur_job = Array.make n (-1);
      started = Array.make n 0.0;
      arrived = Array.make 64 0.0;
      remaining = Array.make 64 0.0;
      job_free = Array.make 64 0;
      job_free_top = 0;
      next_job = 0;
      queue = Int_deque.create ~capacity:64 ();
      repair_queue = Int_deque.create ~capacity:(max 2 n) ();
      idle_crews =
        (match cfg.repair_crews with None -> n | Some c -> min c n);
      ops_up = n;
      busy = 0;
      coll = Collector.create ~track_responses ();
      probe;
      in_system = 0;
      heap = Index_heap.create ~capacity:(max 64 (4 * n)) ();
      clk = { now = 0.0; next_arrival = infinity };
      events = 0;
      arrivals = 0;
      completions = 0;
      breakdowns = 0;
      preemptions = 0;
      repairs = 0;
      heap_max = 0;
    }
  in
  Collector.record_operative st.coll ~now:0.0 n;
  (* stagger initial breakdowns *)
  for srv = 0 to n - 1 do
    schedule st ~delay:(sample_positive st st.op) ~kind:k_breakdown ~server:srv
      ~epoch:0
  done;
  st.clk.next_arrival <- Pcg.exponential st.rng cfg.lambda;
  drain st warmup;
  Collector.reset st.coll ~now:warmup;
  let stop = warmup +. duration in
  drain st stop;
  (match probe with Some p -> Probe.finish p ~now:stop | None -> ());
  flush_metrics st;
  {
    mean_jobs = Collector.mean_jobs st.coll ~now:stop;
    mean_response = Collector.mean_response st.coll;
    mean_operative = Collector.mean_operative st.coll ~now:stop;
    completed = Collector.completed st.coll;
    measured_time = duration;
    responses = Collector.responses st.coll;
    events = st.events;
  }
