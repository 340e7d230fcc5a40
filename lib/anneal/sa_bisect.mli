(** Simulated annealing for graph bisection (paper §II, as instantiated
    by Johnson, Aragon, McGeoch and Schevon).

    The solution space is {e all} two-side assignments, not just
    balanced ones: a move flips one random vertex to the other side,
    and imbalance is discouraged by a quadratic penalty,

    [cost(side) = cut(side) + imbalance_factor * (|V1| - |V2|)^2].

    This soft constraint is what lets annealing tunnel between balanced
    configurations through slightly unbalanced ones. The best
    {e exactly balanced} configuration seen is tracked throughout (the
    paper insists on this, §VII); on termination the result is the
    better of that snapshot and the final state after greedy
    rebalancing. *)

type config = {
  imbalance_factor : float;  (** [> 0]; the default [0.05] follows JAMS. *)
  schedule : Schedule.t;
}

val default_config : config
(** [{ imbalance_factor = 0.05; schedule = Schedule.default }]. *)

type stats = {
  sa : Sa.stats;  (** Engine counters. *)
  best_was_snapshot : bool;
      (** [true] when the returned bisection is the tracked best
          balanced state rather than the rebalanced final state. *)
  initial_cut : int;
  final_cut : int;
}

val refine :
  ?config:config ->
  ?trace:(temperature:float -> acceptance:float -> best_cost:float -> unit) ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  int array ->
  int array * stats
(** Anneal from the given balanced assignment; returns a balanced
    assignment (never worse than rebalancing the input would be only in
    expectation — SA is stochastic).
    @raise Invalid_argument if the input is invalid or unbalanced. *)

val run :
  ?config:config ->
  ?trace:(temperature:float -> acceptance:float -> best_cost:float -> unit) ->
  Gb_prng.Rng.t ->
  Gb_graph.Csr.t ->
  Gb_partition.Bisection.t * stats
(** The paper's standard SA: {!refine} from a fresh random balanced
    bisection. *)


(** {1 Reuse by other metaheuristics}

    The underlying problem instance (state = side assignment with a
    cached cut and side counts, move = single-vertex flip, cost = cut
    plus quadratic imbalance penalty) is exposed so that alternative
    engines — e.g. {!Threshold} accepting — can run on the identical
    search space.

    A live state (one built by {!Problem.make}) also caches every
    vertex's gain. The invariant is
    [gain st v = Bisection.gain g (sides st) v] for every [v], and
    [cut] equals [Bisection.compute_cut g (sides st)]. [make] fills the
    cache in O(m). [apply st v] keeps it exact in O(deg v): it negates
    [v]'s gain and moves each neighbour's by twice the edge weight.
    [delta] is then one array read. A snapshot carries sides, cut and
    counts but no gain cache: [delta] and [apply] raise
    [Invalid_argument] on it, and {!Problem.save} only writes into
    one. *)

module Problem : sig
  (* A move is the vertex to flip — public so engines built on this
     problem (replica exchange, threshold accepting) can log and replay
     accepted-move trajectories. *)
  include Sa.Problem with type move = int

  val make : config -> Gb_graph.Csr.t -> int array -> state
  (** Build a state from a balanced side assignment (copied). *)

  val gain : state -> int -> int
  (** [gain st v]: the cached gain of [v], equal to
      [Bisection.gain g (sides st) v].
      @raise Invalid_argument on a snapshot. *)

  val sides : state -> int array
  (** Current side assignment (copied). *)
end
