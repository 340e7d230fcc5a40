module Rng = Gb_prng.Rng
module Obs = Gb_obs

(* Observability instruments (no-ops unless Gb_obs is switched on). *)
let m_proposed = Obs.Metrics.counter "sa.moves_proposed"
let m_accepted_downhill = Obs.Metrics.counter "sa.accepted_downhill"
let m_accepted_uphill = Obs.Metrics.counter "sa.accepted_uphill"
let m_rejected_uphill = Obs.Metrics.counter "sa.rejected_uphill"
let m_plateaus = Obs.Metrics.counter "sa.plateaus"
let h_acceptance = Obs.Metrics.histogram "sa.plateau_acceptance_pct"

type outcome = Rejected | Downhill | Uphill

(* Figure 1, lines 9-10: the one Metropolis rule. Inlined, so [d] and
   Rng.float's result stay unboxed in the caller; the temperature comes
   in a float array cell, which is never boxed. *)
let[@inline] accept rng d temperature =
  let t = Float.Array.get temperature 0 in
  d <= 0. || Rng.float rng 1.0 < exp (-.d /. t)

module type Problem = sig
  type state
  type move

  val size : state -> int
  val cost : state -> float
  val random_move : Rng.t -> state -> move
  val delta : state -> move -> float
  val apply : state -> move -> unit
  val step : Rng.t -> Float.Array.t -> state -> outcome
  val feasible : state -> bool
  val snapshot : state -> state
  val save : src:state -> dst:state -> unit
end

type plateau = {
  temperature : float;
  p_attempted : int;
  p_accepted : int;
  p_accepted_uphill : int;
  p_accepted_downhill : int;
  p_rejected : int;
  acceptance : float;
  p_best_cost : float;
  improved_best : bool;
}

type stats = {
  temperatures : int;
  attempted : int;
  accepted : int;
  uphill_accepted : int;
  initial_temperature : float;
  final_temperature : float;
  frozen : bool;
  plateaus : plateau list;
}

module Make (P : Problem) = struct
  type result = { final : P.state; best : P.state; best_cost : float; stats : stats }

  (* Sample uphill deltas from the start state (without keeping the
     moves) and choose T such that the mean uphill move is accepted
     with probability [fraction]: T = -mean_delta / ln fraction. *)
  let calibrate rng state fraction =
    let samples = 200 in
    let sum = ref 0. and count = ref 0 in
    for _ = 1 to samples do
      let mv = P.random_move rng state in
      let d = P.delta state mv in
      if d > 0. then begin
        sum := !sum +. d;
        incr count
      end
    done;
    if !count = 0 then 1.0
    else
      let mean = !sum /. float_of_int !count in
      -.mean /. log fraction

  let run ?(schedule = Schedule.default) ?trace rng state =
    Schedule.validate schedule;
    let t0 =
      match schedule.Schedule.initial_temperature with
      | Schedule.Fixed_temperature t -> t
      | Schedule.Calibrate fraction -> calibrate rng state fraction
    in
    let temperature = ref t0 in
    (* The temperature as P.step reads it: one unboxed cell, set once
       per plateau. *)
    let cell = Float.Array.make 1 t0 in
    (* The one best-state buffer of the run: improvements overwrite it
       in place through P.save. *)
    let best = P.snapshot state in
    let best_cost = ref (if P.feasible state then P.cost state else infinity) in
    let have_best = ref (P.feasible state) in
    let attempted = ref 0 and accepted = ref 0 and uphill = ref 0 in
    let cold_streak = ref 0 in
    let temperatures = ref 0 in
    let frozen = ref false in
    let plateaus = ref [] in
    let trials_per_temp = schedule.Schedule.size_factor * max 1 (P.size state) in
    let acceptance_budget =
      (* JAMS cutoff: leave a temperature early once this many moves
         have been accepted (trials_per_temp + 1 disables it). *)
      if schedule.Schedule.cutoff >= 1. then trials_per_temp + 1
      else
        max 1
          (int_of_float (schedule.Schedule.cutoff *. float_of_int trials_per_temp))
    in
    while
      (not !frozen)
      && !temperatures < schedule.Schedule.max_temperatures
      && !temperature > schedule.Schedule.min_temperature
    do
      let span = Obs.Trace.start () in
      let accepted_here = ref 0 in
      let attempted_here = ref 0 in
      let uphill_here = ref 0 in
      let improved_best = ref false in
      Float.Array.set cell 0 !temperature;
      while !attempted_here < trials_per_temp && !accepted_here < acceptance_budget do
        incr attempted_here;
        let outcome = P.step rng cell state in
        incr attempted;
        if outcome <> Rejected then begin
          incr accepted;
          incr accepted_here;
          if outcome = Uphill then begin
            incr uphill;
            incr uphill_here
          end;
          if P.feasible state then begin
            let c = P.cost state in
            if (not !have_best) || c < !best_cost then begin
              P.save ~src:state ~dst:best;
              best_cost := c;
              have_best := true;
              improved_best := true
            end
          end
        end
      done;
      incr temperatures;
      let acceptance = float_of_int !accepted_here /. float_of_int !attempted_here in
      plateaus :=
        {
          temperature = !temperature;
          p_attempted = !attempted_here;
          p_accepted = !accepted_here;
          p_accepted_uphill = !uphill_here;
          p_accepted_downhill = !accepted_here - !uphill_here;
          p_rejected = !attempted_here - !accepted_here;
          acceptance;
          p_best_cost = !best_cost;
          improved_best = !improved_best;
        }
        :: !plateaus;
      Obs.Metrics.incr m_plateaus;
      Obs.Metrics.add m_proposed !attempted_here;
      Obs.Metrics.add m_accepted_uphill !uphill_here;
      Obs.Metrics.add m_accepted_downhill (!accepted_here - !uphill_here);
      Obs.Metrics.add m_rejected_uphill (!attempted_here - !accepted_here);
      Obs.Metrics.observe h_acceptance (100. *. acceptance);
      Obs.Telemetry.sample "sa.plateau" !best_cost;
      Obs.Trace.finish span "sa.plateau"
        ~args:
          [
            ("plateau", Obs.Json.Int !temperatures);
            ("temperature", Obs.Json.Float !temperature);
            ("attempted", Obs.Json.Int !attempted_here);
            ("accepted", Obs.Json.Int !accepted_here);
            ("acceptance", Obs.Json.Float acceptance);
            ("best_cost", Obs.Json.Float !best_cost);
          ];
      (match trace with
      | Some f -> f ~temperature:!temperature ~acceptance ~best_cost:!best_cost
      | None -> ());
      if acceptance < schedule.Schedule.min_acceptance && not !improved_best then
        incr cold_streak
      else cold_streak := 0;
      if !cold_streak >= schedule.Schedule.frozen_after then frozen := true
      else temperature := !temperature *. schedule.Schedule.cooling
    done;
    let best_state = if !have_best then best else P.snapshot state in
    let best_cost = if !have_best then !best_cost else P.cost state in
    {
      final = state;
      best = best_state;
      best_cost;
      stats =
        {
          temperatures = !temperatures;
          attempted = !attempted;
          accepted = !accepted;
          uphill_accepted = !uphill;
          initial_temperature = t0;
          final_temperature = !temperature;
          frozen = !frozen;
          plateaus = List.rev !plateaus;
        };
    }
end
