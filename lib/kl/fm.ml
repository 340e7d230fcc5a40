module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection

type config = { max_passes : int; until_no_improvement : bool; tolerance : int }

let default_config = { max_passes = 50; until_no_improvement = true; tolerance = 2 }

type stats = {
  passes : int;
  moves : int;
  initial_cut : int;
  final_cut : int;
  pass_gains : int list;
}

(* Allocation-free (no closure, no count pair), since [pass] must be. *)
let check_input g side =
  Bisection.validate_sides g side;
  let ones = Array.fold_left ( + ) 0 side in
  if abs (Array.length side - (2 * ones)) > 1 then
    invalid_arg "Fm: input bisection is not balanced"

(* Everything a pass needs besides the caller's side array. Every array
   is fully rewritten (or cleared) at the start of a pass before it is
   read, so a workspace carries no state from one pass to the next. *)
module Workspace = struct
  type t = {
    range : int; (* bucket gain range: bounds every weighted degree *)
    gains : int array;
    locked : bool array;
    moves : int array; (* moves.(i): vertex moved at step i *)
    cumulative : int array; (* running gain after step i *)
    balanced_at : bool array; (* exactly balanced after step i *)
    buckets : Gain_buckets.t array; (* one per side *)
    mutable committed : int; (* moves kept by the last pass *)
  }

  let create g =
    let n = Csr.n_vertices g in
    let range = ref 1 in
    for v = 0 to n - 1 do
      let d = Csr.weighted_degree g v in
      if d > !range then range := d
    done;
    let range = !range in
    {
      range;
      gains = Array.make n 0;
      locked = Array.make n false;
      moves = Array.make n 0;
      cumulative = Array.make n 0;
      balanced_at = Array.make n false;
      buckets =
        [| Gain_buckets.create ~capacity:n ~range; Gain_buckets.create ~capacity:n ~range |];
      committed = 0;
    }
end

(* One pass on [side] in place; returns the committed gain and leaves
   the committed move count in [ws.committed]. Allocation-free: the
   loops walk adjacency by index and read the bucket tops directly.

   Step order, tie-breaks and the legality test are those of the
   textbook pass: move the unlocked vertex of maximal gain whose move
   keeps |c0 - c1| <= tolerance, taking equal gains from the larger
   side (side 0 when the sides are even); commit the best
   exactly-balanced prefix.
   Each vertex moves at most once, so undoing the steps after that
   prefix leaves exactly the start side with the prefix flipped. *)
let pass_internal ~tolerance (ws : Workspace.t) g side =
  if tolerance < 2 then invalid_arg "Fm: tolerance must be >= 2";
  let n = Csr.n_vertices g in
  if n > Array.length ws.gains then invalid_arg "Fm.pass: graph exceeds the workspace";
  let gains = ws.gains and locked = ws.locked in
  let b0 = ws.buckets.(0) and b1 = ws.buckets.(1) in
  Gain_buckets.clear b0;
  Gain_buckets.clear b1;
  let c0 = ref 0 in
  (* Sequential gain fill: the per-vertex fold the chunked kernel uses,
     so the gains are the integers [Bisection.all_gains] returns. The
     weighted degree bounds every gain the pass can reach; checking it
     here fails before [side] is touched. *)
  for v = 0 to n - 1 do
    let sv = side.(v) in
    let gain = ref 0 and degree = ref 0 in
    for k = Csr.adj_start g v to Csr.adj_stop g v - 1 do
      let w = Csr.adj_weight g k in
      degree := !degree + w;
      if side.(Csr.adj_target g k) = sv then gain := !gain - w else gain := !gain + w
    done;
    if !degree > ws.range then invalid_arg "Fm.pass: a weighted degree exceeds the workspace range";
    gains.(v) <- !gain;
    locked.(v) <- false;
    if sv = 0 then incr c0;
    Gain_buckets.insert (if sv = 0 then b0 else b1) v !gain
  done;
  let c1 = ref (n - !c0) in
  let commit_tol = n land 1 in
  let performed = ref 0 and running = ref 0 in
  let stuck = ref false in
  while (not !stuck) && !performed < n do
    (* A move from side s is legal if afterwards |c0 - c1| <= tolerance. *)
    let from0 = !c0 > 0 && abs (!c0 - !c1 - 2) <= tolerance && Gain_buckets.cardinal b0 > 0 in
    let from1 = !c1 > 0 && abs (!c1 - !c0 - 2) <= tolerance && Gain_buckets.cardinal b1 > 0 in
    if not (from0 || from1) then stuck := true
    else begin
      let from_side =
        if not from1 then 0
        else if not from0 then 1
        else
          let g0 = Gain_buckets.max_gain b0 and g1 = Gain_buckets.max_gain b1 in
          if g0 > g1 then 0 else if g1 > g0 then 1 else if !c0 >= !c1 then 0 else 1
      in
      let bucket = if from_side = 0 then b0 else b1 in
      let gv = Gain_buckets.max_gain bucket in
      let v = Gain_buckets.pop_max bucket in
      let to_side = 1 - from_side in
      locked.(v) <- true;
      side.(v) <- to_side;
      if from_side = 0 then begin
        decr c0;
        incr c1
      end
      else begin
        incr c0;
        decr c1
      end;
      for k = Csr.adj_start g v to Csr.adj_stop g v - 1 do
        let u = Csr.adj_target g k in
        if not locked.(u) then begin
          let w = Csr.adj_weight g k in
          let su = side.(u) in
          let gu = if su = to_side then gains.(u) - (2 * w) else gains.(u) + (2 * w) in
          gains.(u) <- gu;
          Gain_buckets.update (if su = 0 then b0 else b1) u gu
        end
      done;
      running := !running + gv;
      let i = !performed in
      ws.moves.(i) <- v;
      ws.cumulative.(i) <- !running;
      ws.balanced_at.(i) <- abs (!c0 - !c1) <= commit_tol;
      performed := i + 1
    end
  done;
  let best_k = ref 0 and best_gain = ref 0 in
  for i = 0 to !performed - 1 do
    if ws.balanced_at.(i) && ws.cumulative.(i) > !best_gain then begin
      best_gain := ws.cumulative.(i);
      best_k := i + 1
    end
  done;
  for i = !performed - 1 downto !best_k do
    let v = ws.moves.(i) in
    side.(v) <- 1 - side.(v)
  done;
  ws.committed <- !best_k;
  !best_gain

let pass ?(tolerance = default_config.tolerance) ws g side =
  check_input g side;
  pass_internal ~tolerance ws g side

let one_pass ?(tolerance = default_config.tolerance) g side =
  check_input g side;
  let side = Array.copy side in
  let gain = pass_internal ~tolerance (Workspace.create g) g side in
  (side, gain)

let refine ?(config = default_config) g side0 =
  (* Resource profile of a whole refinement; inert unless Prof is on. *)
  Gb_obs.Prof.with_span "fm.refine" @@ fun () ->
  check_input g side0;
  let initial_cut = Bisection.compute_cut g side0 in
  let side = Array.copy side0 in
  let ws = Workspace.create g in
  let pass_gains = ref [] in
  let moves = ref 0 in
  let passes = ref 0 in
  let cut = ref initial_cut in
  Gb_obs.Telemetry.sample "fm.pass" (float_of_int initial_cut);
  (try
     while !passes < config.max_passes do
       let span = Gb_obs.Trace.start () in
       let gain = pass_internal ~tolerance:config.tolerance ws g side in
       incr passes;
       pass_gains := gain :: !pass_gains;
       if gain > 0 then begin
         moves := !moves + ws.committed;
         cut := !cut - gain
       end;
       Gb_obs.Telemetry.sample "fm.pass" (float_of_int !cut);
       Gb_obs.Trace.finish span "fm.pass"
         ~args:[ ("pass", Gb_obs.Json.Int !passes); ("gain", Gb_obs.Json.Int gain) ];
       if gain <= 0 && config.until_no_improvement then raise Exit
     done
   with Exit -> ());
  let final_cut = Bisection.compute_cut g side in
  ( side,
    {
      passes = !passes;
      moves = !moves;
      initial_cut;
      final_cut;
      pass_gains = List.rev !pass_gains;
    } )

let run ?config rng g =
  let side0 = Gb_partition.Initial.random rng g in
  let side, stats = refine ?config g side0 in
  (Bisection.of_sides g side, stats)
