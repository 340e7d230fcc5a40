(** Fiduccia-Mattheyses refinement — the single-move descendant of KL.

    The paper notes that KL "variations are some of the most widely
    used graph bisection algorithms"; FM is the variation that won.
    Instead of swapping pairs, one pass moves single vertices: at each
    step the unlocked vertex of maximal gain whose move keeps the side
    counts within a tolerance is moved and locked; the committed result
    is the best exactly-balanced prefix. With gain buckets a pass is
    O(m) — strictly cheaper than KL's pair search — at the price of a
    slightly weaker move repertoire per step.

    {b Memory.} A pass runs inside a {!Workspace}: gains, locked flags,
    the move log, cumulative gains, balanced-at flags and one gain
    bucket structure per side. {!refine} allocates one workspace for
    its graph and reuses it on every pass. A pass moves vertices of the
    caller's side array in place and then rolls back the moves after
    the best balanced prefix. Each vertex moves at most once per pass,
    so the rollback leaves exactly the start side with that prefix
    flipped. A pass allocates nothing and spawns no domain: gains are
    filled sequentially, adjacency is walked by index and the bucket
    tops are read without boxing. The workspace of a {!refine} call
    lives inside that call, so parallel starts each build their own; a
    workspace must never serve two passes at once.

    Provided as an extension (not part of the paper's experiments) and
    exercised by the ablation benchmarks; it slots anywhere {!Kl} does,
    including under compaction. *)

type config = {
  max_passes : int;
  until_no_improvement : bool;
  tolerance : int;
      (** Maximum allowed [|#side0 - #side1|] {e during} a pass; must
          be >= 2 or no move is legal from an exactly balanced start.
          Commits are always exactly balanced regardless. *)
}

val default_config : config
(** [{ max_passes = 50; until_no_improvement = true; tolerance = 2 }]. *)

type stats = {
  passes : int;
  moves : int;  (** Committed single-vertex moves. *)
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

module Workspace : sig
  type t

  val create : Gb_graph.Csr.t -> t
  (** A workspace sized for the given graph. It also serves any graph
      with no more vertices and no larger weighted degree. *)
end

val pass : ?tolerance:int -> Workspace.t -> Gb_graph.Csr.t -> int array -> int
(** [pass ws g side] runs one pass from the balanced assignment [side],
    updates [side] in place to the committed (exactly balanced)
    assignment and returns its cut decrease; [0] leaves [side]
    unchanged. Allocation-free.
    @raise Invalid_argument if [side] is invalid or unbalanced, if
    [tolerance < 2], or if [g] does not fit [ws]; [side] is untouched
    when it raises. *)

val one_pass : ?tolerance:int -> Gb_graph.Csr.t -> int array -> int array * int
(** Single pass from a balanced assignment on a fresh workspace;
    returns the new assignment (exactly balanced, a fresh array) and
    its cut decrease. *)

val refine : ?config:config -> Gb_graph.Csr.t -> int array -> int array * stats
val run :
  ?config:config -> Gb_prng.Rng.t -> Gb_graph.Csr.t -> Gb_partition.Bisection.t * stats
