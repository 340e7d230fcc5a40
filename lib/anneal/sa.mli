(** Generic simulated annealing engine — Figure 1 of the paper, made
    executable over any problem instance.

    The engine is parameterised by a {!Problem}: a mutable state, a
    random move proposal, the cost delta of a move, its application,
    and {!Problem.step}, which fuses one attempt (lines 7-10) into a
    single call. Line-for-line correspondence with the figure:

    {v
    1.  GET INITIAL SOLUTION S            — the caller's start state
    2.  GET INITIAL TEMPERATURE T         — Schedule.initial_temperature
    3.  WHILE (NOT YET FROZEN) DO         — acceptance-ratio freezing
    5.    WHILE (NOT YET IN EQUILIBRIUM)  — size_factor * n attempts
    7.      PICK A RANDOM SOLUTION S'     — Problem.step: random_move
    8.      LET delta = CHANGE IN COST    — Problem.step: delta
    9.      IF delta < 0 SET S = S'       — Problem.step: {!accept},
    10.     ELSE SET S = S' WITH            then apply if accepted;
              PROBABILITY e^(-delta/T)      returns the {!outcome}
    12.   REDUCE TEMPERATURE              — t := cooling * t
    14. OUTPUT SOLUTION S                 — plus the best state seen
    v}

    The engine makes one call to {!Problem.step} per attempt, and calls
    {!Problem.feasible} and {!Problem.cost} only after an accepted
    move. Temperature calibration and {!Threshold} still go through
    {!Problem.random_move}, {!Problem.delta} and {!Problem.apply}.

    Following the paper's §VII warning that SA "may migrate away from
    an optimal solution ... one must then save the best bisection found
    as the algorithm progresses", the engine snapshots the best
    {e feasible} state seen (feasibility defined by the problem). The
    paper notes that this "increases the time and storage
    requirements". Here the storage is one {!Problem.snapshot} taken at
    the start of a run, and each new best costs one {!Problem.save}
    into it: a blit of the state, with no allocation. *)

(** {1 The Metropolis rule} *)

val accept : Gb_prng.Rng.t -> float -> Float.Array.t -> bool
(** [accept rng d temperature] is Figure 1's lines 9-10 for a move of
    cost change [d] at the temperature [t] held in cell 0 of
    [temperature]: [true] when [d <= 0.], otherwise [true] with
    probability [e^(-d/t)]. It draws one {!Gb_prng.Rng.float} unless
    [d <= 0.]; a NaN [d] draws and is rejected. Every annealer
    ({!Problem.step} instances, replica-exchange chains) decides with
    this one function. It is inlined where the compiler inlines across
    modules (dune's release profile), and then no float of the rule is
    boxed. The temperature cell is never boxed, in any build. *)

(** What one {!Problem.step} did. The constructors are constants, so
    returning one allocates nothing. *)
type outcome =
  | Rejected  (** The move was rejected; the state is unchanged. *)
  | Downhill  (** Accepted with [d <= 0.]. *)
  | Uphill  (** Accepted with [d > 0.]. *)

(** {1 Problems} *)

module type Problem = sig
  type state

  type move

  val size : state -> int
  (** Instance size; equilibrium is [size_factor * size] attempts. *)

  val cost : state -> float
  (** Current cost of the (mutable) state. *)

  val random_move : Gb_prng.Rng.t -> state -> move

  val delta : state -> move -> float
  (** Cost change if [move] were applied; must not mutate. *)

  val apply : state -> move -> unit

  val step : Gb_prng.Rng.t -> Float.Array.t -> state -> outcome
  (** [step rng temperature state] makes one attempt at the temperature
      held in cell 0 of [temperature]: it draws a move as {!random_move}
      does, prices it as {!delta} does, decides with {!accept}, applies
      the move as {!apply} does if it was accepted, and returns the
      {!outcome}. Its draws and its answer must equal those of
      [random_move], [delta], [accept] and [apply] called in that order,
      so every engine over the problem anneals the same way whichever
      path it takes. The engine calls it once per attempt, so it should
      allocate nothing. *)

  val feasible : state -> bool
  (** Whether the current state may be recorded as "best" (e.g. the
      bisection is balanced). *)

  val snapshot : state -> state
  (** A read-only copy of the state. The engine takes one at the start
      of a run as its best-state buffer and returns snapshots as
      [best]. A snapshot answers {!cost}, {!feasible} and {!size} like
      the state it copies. It need not carry the caches that {!delta}
      and {!apply} read, so a problem may raise when a snapshot is
      stepped. *)

  val save : src:state -> dst:state -> unit
  (** [save ~src ~dst] overwrites the snapshot [dst] with the current
      contents of [src], which must come from the same instance (for
      example the same graph). Afterwards [dst] reads exactly as
      [snapshot src] would, and later changes to [src] leave it
      unchanged. It is called once per new best, so it should copy in
      place and allocate nothing. *)
end

(** Per-temperature-step record — the acceptance ratio here is the
    freezing criterion the paper's schedule depends on, and the
    [p_best_cost] series is Figure 1's trajectory. *)
type plateau = {
  temperature : float;
  p_attempted : int;  (** Moves proposed at this temperature. *)
  p_accepted : int;
  p_accepted_uphill : int;
  p_accepted_downhill : int;  (** Downhill/flat moves are always accepted. *)
  p_rejected : int;  (** Rejected moves (all rejections are uphill). *)
  acceptance : float;  (** [p_accepted / p_attempted]. *)
  p_best_cost : float;  (** Best feasible cost seen so far. *)
  improved_best : bool;  (** Whether this plateau improved the best. *)
}

type stats = {
  temperatures : int;
  attempted : int;
  accepted : int;
  uphill_accepted : int;
  initial_temperature : float;
  final_temperature : float;
  frozen : bool;  (** [true]: acceptance froze; [false]: a safety cap hit. *)
  plateaus : plateau list;  (** One record per temperature step, in order. *)
}

module Make (P : Problem) : sig
  type result = {
    final : P.state;  (** State when the schedule ended. *)
    best : P.state;  (** Best feasible state seen (= [final] if none). *)
    best_cost : float;
    stats : stats;
  }

  val run :
    ?schedule:Schedule.t ->
    ?trace:(temperature:float -> acceptance:float -> best_cost:float -> unit) ->
    Gb_prng.Rng.t ->
    P.state ->
    result
  (** [run rng state] anneals [state] in place (the caller should keep
      its own copy if needed) and returns it along with the best
      feasible snapshot. [trace] fires after every temperature. *)
end
