(** Perf history: the bench summary journal behind [BENCH_history.jsonl]
    and the trend analysis behind [urs report].

    {b Schema ["urs-perf/1"]} — one JSON object per line:
    {v
    {"schema":"urs-perf/1",
     "time": <unix seconds the bench finished>,
     "git_rev": "<short git revision, or "unknown">",
     "ocaml": "<Sys.ocaml_version>",
     "jobs": <URS_JOBS pool width the bench ran with>,
     "host": {"hostname": "...", "cpu_model": "...", "cpus": <online CPUs>}
             or null,
     "sections": {"<section>": <wall seconds>, ...},
     "solvers": {"<solver>": {"seconds": <wall seconds per solve>,
                              "minor_words": <minor words per solve>,
                              "promoted_words": <...>,
                              "major_words": <...>}, ...}}
    v}
    Extra fields are ignored on read (the schema can grow
    backward-compatibly); an unknown ["schema"] tag is an error. A null
    or missing ["host"] (every row written before it existed) reads as
    host unknown.
    {!append} never truncates — [make bench] only ever adds lines. *)

val schema : string
(** ["urs-perf/1"]. *)

type solver_stat = {
  seconds : float;  (** wall seconds per solve *)
  minor_words : float;  (** minor-heap words allocated per solve *)
  promoted_words : float;
  major_words : float;
}

type host = {
  hostname : string;
  cpu_model : string;  (** ["model name"] of /proc/cpuinfo *)
  cpus : int;  (** online CPUs *)
}

type entry = {
  time : float;
  git_rev : string;
  ocaml : string;
  jobs : int;
  host : host option;  (** [None]: host unknown *)
  sections : (string * float) list;
  solvers : (string * solver_stat) list;
}

val entry_to_json : entry -> Json.t

val entry_of_json : Json.t -> (entry, string) result

val append : string -> entry -> unit
(** Append one line to the history file (created if missing, never
    truncated). *)

val read_file : string -> (entry list, string) result
(** Parse a history file; blank lines are skipped, the first malformed
    line is an error. *)

val git_rev : unit -> string
(** Short revision of HEAD, or ["unknown"] outside a git checkout. *)

val current_host : unit -> host
(** This machine: hostname, the first ["model name"] of /proc/cpuinfo
    (["unknown"] where there is none) and its processor count
    ({!Domain.recommended_domain_count} where the file is missing). *)

(** {1 Trend analysis} *)

type trend = {
  solver : string;
  runs : (float * solver_stat) list;
      (** (entry time, stat) in history order. *)
  best_seconds : float;  (** minimum over all runs ("best-known") *)
  latest_seconds : float;
  ratio : float;  (** [latest_seconds /. best_seconds] *)
  latest_minor_words : float;
  best_host : host option;  (** host of the best-known run *)
  latest_host : host option;
  gated : bool;  (** participates in the breach decision *)
  breach : bool;  (** [gated] and [ratio > max_ratio] *)
}

type report = {
  entries : int;
  max_ratio : float;
  host : host option;  (** host of the latest entry *)
  trends : trend list;  (** sorted by solver name *)
  section_runs : (string * float list) list;
  breaches : string list;
}

val analyze : ?max_ratio:float -> ?gate:string list -> entry list -> report
(** [analyze entries] computes per-solver trends over the history (in
    the given order). A solver in [gate] (default
    [["spectral"; "sim"]] — the paper's analytic hot path plus the
    simulation engine's seconds-per-event; the others are too fast for
    wall-clock ratios to be stable) breaches when its latest run exceeds
    [max_ratio] (default [2.0]) times its best-known run. [urs report]
    exits nonzero iff [breaches] is non-empty. Hosts do not enter the
    decision; the renderings show them and mark a trend whose latest
    and best-known runs come from different hosts. *)

val render_table : report -> string
(** Human-readable fixed-width table: the latest entry's host, then
    solver rows (runs, best, latest, ratio, alloc-per-solve, gate
    status, [same] / [CROSS] / [unknown] host comparison of the latest
    and best-known runs, and the full trend). *)

val render_markdown : report -> string

val report_json : report -> Json.t

val render_json : report -> string

val render_data : report -> string
(** gnuplot-ready columns [run time seconds minor_words], one index
    (double-blank-line separated block) per solver. *)

(** {1 Ledger digest} *)

val ledger_digest : Ledger.record list -> (string * int * float) list
(** Per-kind (kind, record count, summed wall seconds), sorted by
    kind. *)

val render_ledger_digest : (string * int * float) list -> string
