(** The solver registry: every end-to-end bisection algorithm, its
    names, and the one runner that dispatches on it.

    The paper's four solvers (KL, SA, CKL, CSA) and the repo's four
    extensions (FM, MLKL, MLFM, XSA) are listed here and nowhere else.
    [gbisect solve], [race], [kway] and [scale], the serve daemon and
    its wire protocol, and the fuzz oracles all take their algorithm
    list, their ids and their dispatch from this module. A new backend
    is one constructor (appended to {!all}), one [id] arm and one
    [run] arm; the fuzz oracles' exhaustive match then refuses to
    compile until it covers it. *)

type algorithm =
  [ `Kl  (** Kernighan-Lin *)
  | `Sa  (** simulated annealing *)
  | `Ckl  (** compacted KL — the paper's winner on sparse graphs *)
  | `Csa  (** compacted SA *)
  | `Fm  (** Fiduccia-Mattheyses (extension) *)
  | `Multilevel  (** recursive compaction over KL (extension) *)
  | `Mlfm
    (** recursive compaction over FM — linear-time passes, the
        refiner of choice on million-edge instances (extension) *)
  | `Xsa
    (** replica-exchange SA — K tempered chains with deterministic
        seed-derived swap schedules on the ambient pool (extension;
        see {!Gb_race.Xsa}) *) ]

val all : algorithm list
(** Every algorithm, in declaration order. *)

val id : algorithm -> string
(** Lowercase id, used on the command line, on the wire and in
    artifacts: ["kl"], ["sa"], ["ckl"], ["csa"], ["fm"], ["mlkl"],
    ["mlfm"], ["xsa"]. *)

val name : algorithm -> string
(** Display name: the upper-cased {!id} (["KL"], ..., ["MLKL"]). *)

val of_id : string -> algorithm option
(** Inverse of {!id}, case-insensitive; ["multilevel"] is an accepted
    alias of ["mlkl"]. *)

val unknown : string -> string
(** [unknown s] is the error text for an id {!of_id} rejects:
    [unknown algorithm "s" (kl sa ckl csa fm mlkl mlfm xsa)]. *)

type ml_config = {
  min_vertices : int;  (** Coarsening floor. *)
  max_levels : int;  (** Maximum coarsening depth. *)
  coarse_starts : int;  (** Best-of-k initial partitions at the coarsest level. *)
  refine_passes : int;
      (** Pass cap of the per-level KL/FM refiner of [`Multilevel] and
          [`Mlfm]. *)
}
(** Knobs of the multilevel V-cycle (see
    {!Gb_compaction.Compaction.recursive}); the other algorithms ignore
    them. *)

val default_ml_config : ml_config
(** [{ min_vertices = 64; max_levels = 20; coarse_starts = 1;
    refine_passes = 50 }]: the defaults of
    {!Gb_compaction.Compaction.recursive}, refining each level to
    quiescence under the 50-pass cap of {!Gb_kl.Kl.default_config} and
    {!Gb_kl.Fm.default_config}. *)

val run :
  ?ml:ml_config ->
  algorithm ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * int
(** One start of [algorithm] on the given stream. The int is the
    V-cycle depth: the coarsening levels + 1 for [`Multilevel] and
    [`Mlfm], 1 for every other algorithm. *)

val kway_solver : algorithm -> Gb_compaction.Kway.solver
(** {!run} with {!default_ml_config} as the per-level solver of
    {!Gb_compaction.Kway.partition}: the side array of one start. *)

val best_of :
  ?ml:ml_config ->
  starts:int ->
  algorithm ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t
(** The best of [starts] runs. One {!Gb_prng.Rng.derive_seed} draw
    from the stream gives a base; start [i] runs on
    [Rng.substream ~base i] on the ambient {!Gb_par.Pool}, and equal
    cuts go to the lowest start index, so the result is bit-identical
    at every job count.
    @raise Invalid_argument if [starts < 1]. *)
