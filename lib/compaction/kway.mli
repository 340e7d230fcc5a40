(** k-way partitioning by recursive bisection — the VLSI placement flow
    the paper's introduction motivates.

    Min-cut placement splits the chip region in half, assigns each half
    of the netlist to one side, and recurses; after [log2 k] levels the
    circuit is spread over [k] regions. This module runs that flow with
    any of the library's bisection solvers: each level bisects every
    current part's induced subgraph independently.

    Parts are numbered [0 .. k-1] by the bit pattern of the bisection
    decisions (so part ids are spatially meaningful in the placement
    analogy: the high bit is the first, coarsest cut). [k] must be a
    power of two; part sizes differ by at most [levels] vertices (each
    bisection is exact to within one). *)

type solver = Gb_prng.Rng.t -> Gb_graph.Csr.t -> int array
(** A complete bisection solver: graph in, balanced side array out.
    [Gb_solvers.Solvers.kway_solver] gives every registered algorithm
    as one. *)

type result = {
  parts : int array;  (** [parts.(v)] in [0 .. k-1]. *)
  k : int;
  total_cut : int;  (** Weight of edges joining different parts. *)
  level_cuts : int list;
      (** Cut added by each level, coarsest first; sums to [total_cut]. *)
}

val partition : k:int -> solver:solver -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> result
(** [partition ~k ~solver rng g].
    @raise Invalid_argument unless [k] is a power of two, [>= 1], and
    at most [Csr.n_vertices g] (for non-empty graphs). *)

val part_sizes : result -> int array
val validate : Gb_graph.Csr.t -> result -> unit
(** Check part range, size balance (max - min <= number of levels) and
    the cut bookkeeping. @raise Failure on violation. *)
