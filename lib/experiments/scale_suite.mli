(** The scale bench behind [gbisect scale]: one large synthetic
    instance, one solve, end-to-end throughput and peak RSS as a
    schema-versioned artifact ([results/BENCH_scale.json]).

    Where {!Perf_suite} measures nanoseconds over thousands of
    iterations of small kernels, this suite answers the capacity
    question — does a multi-million-edge graph build, fit, and bisect —
    so a single run is the measurement. *)

val schema_version : int

type model =
  | Gnp of { n : int; avg_degree : float }
      (** Erdős–Rényi via the geometric-skip sampler. *)
  | Grid of { rows : int; cols : int }

val default_ml_config : Gb_solvers.Solvers.ml_config
(** {!Gb_solvers.Solvers.default_ml_config} with [refine_passes = 4]
    ([gbisect scale --refine-passes] sets the field). Refining every
    level to quiescence, as [gbisect solve] does, makes solve time
    superlinear in the instance size: FM runs 30+ near-full passes on
    the finest levels for under 2% of extra cut quality. The bounded
    budget is the usual multilevel compromise and what
    [BENCH_scale.json] records. *)

type result = {
  model : model;
  algorithm : Gb_solvers.Solvers.algorithm;
  seed : int;
  n : int;
  m : int;
  cut : int;
  balanced : bool;  (** Checked from a bit-packed copy of the sides. *)
  levels : int;  (** V-cycle depth (1 for the flat solvers). *)
  build_seconds : float;
  solve_seconds : float;
  edges_per_sec : float;  (** [m] over build + solve. *)
  peak_rss_bytes : int option;  (** VmHWM; [None] off Linux. *)
}

val run :
  ?ml:Gb_solvers.Solvers.ml_config ->
  algorithm:Gb_solvers.Solvers.algorithm ->
  seed:int ->
  model ->
  result
(** Build the instance, then one {!Gb_solvers.Solvers.run} of
    [algorithm] (any registered one) on the stream that built it, and
    measure. [ml] defaults to {!default_ml_config}. Deterministic for a
    fixed (model, algorithm, seed, ml) apart from the timing fields. *)

val to_json : result -> Gb_obs.Json.t
(** Adds [schema_version] and the {!Perf_suite.host} fingerprint. *)

val render : result -> string
(** One human-readable summary line. *)
