(* vcycle-gnp: Gbisect.solve ~algorithm:`Mlfm ~starts:1 on seeded
   30k-vertex degree-4 Gnp instances, on 2 domains. *)

module G = Gbisect

(* Untimed warm-up: one solve on a 10k-vertex graph of the family. *)
let warm_up ~seed =
  let small = Inputs.vcycle_graph ~n:10_000 ~seed (-1) in
  ignore (G.solve ~algorithm:`Mlfm ~starts:1 (G.Rng.create ~seed) small)

let solve ~seed ~k g =
  G.solve ~algorithm:`Mlfm ~starts:1 (G.Rng.create ~seed:(Inputs.vcycle_solve_seed ~seed k)) g

(* ------------------------------------------------------------------ *)
(* The traced solve                                                    *)

type fm_call = { seconds : float; stats : G.Fm.stats; words : float }

type traced = {
  bisection : G.Bisection.t;
  stats : G.Compaction.stats;
  spans : Span.t;
  root : Span.span;  (** The whole solve. *)
  fm_calls : fm_call list;  (** In call order: coarsest level first. *)
  levels : (int * int) list;  (** (fine, coarse) vertex counts, finest first. *)
}

(* Gbisect.solve's `Mlfm path, unrolled: the same seed derivation and
   the same Compaction.recursive call, with the FM refiner wrapped in a
   span and the observer timing projection. The result must equal the
   untraced solve's. *)
let traced_solve ~seed ~k g =
  let sp = Span.create () in
  let rng = G.Rng.create ~seed:(Inputs.vcycle_solve_seed ~seed k) in
  let rng = G.Rng.substream ~base:(G.Rng.derive_seed rng) 0 in
  let fm_calls = ref [] and levels = ref [] in
  let root_start = ref 0. and last_refine_end = ref nan in
  let refiner _rng g side =
    let start = Span.now () in
    if Float.is_nan !last_refine_end then
      ignore (Span.add sp "compaction.coarsen" ~start:!root_start ~stop:start);
    let side =
      Span.with_span sp "kl.fm_refine" (fun () ->
          let w0 = Gc.minor_words () in
          let side, stats = G.Fm.refine g side in
          fm_calls :=
            {
              seconds = Span.now () -. start;
              stats;
              words = Gc.minor_words () -. w0;
            }
            :: !fm_calls;
          side)
    in
    last_refine_end := Span.now ();
    side
  in
  let observer ~level:_ ~fine ~coarse ~coarse_side:_ ~projected:_ ~rebalanced:_ =
    ignore (Span.add sp "compaction.project" ~start:!last_refine_end ~stop:(Span.now ()));
    levels := (G.Graph.n_vertices fine, G.Graph.n_vertices coarse) :: !levels
  in
  let bisection, stats =
    Span.with_span sp "compaction.recursive" (fun () ->
        root_start := Span.now ();
        G.Compaction.recursive ~observer ~refiner rng g)
  in
  {
    bisection;
    stats;
    spans = sp;
    root = Span.find_root sp "compaction.recursive";
    fm_calls = List.rev !fm_calls;
    levels = !levels;
  }

(* Replay the coarsening chain through Matching and Contraction with
   the solve's own stream (coarsening draws first, so the chain is the
   solve's), applying Compaction.recursive's stopping rules. Returns
   the (fine, coarse) counts of the kept levels, finest first. *)
let replay_coarsening sp ~seed ~k g =
  let rng = G.Rng.create ~seed:(Inputs.vcycle_solve_seed ~seed k) in
  let rng = G.Rng.substream ~base:(G.Rng.derive_seed rng) 0 in
  let rec go g depth acc =
    let n = G.Graph.n_vertices g in
    if n <= 64 || depth >= 20 then List.rev acc
    else
      let m = Span.with_span sp "graph.match" (fun () -> G.Matching.random_maximal rng g) in
      let c = Span.with_span sp "graph.contract" (fun () -> G.Contraction.contract g m) in
      let nc = G.Graph.n_vertices c.G.Contraction.coarse in
      if 10 * nc > 9 * n then List.rev acc else go c.G.Contraction.coarse (depth + 1) ((n, nc) :: acc)
  in
  go g 0 []

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

(* Calibration repetitions before each solve of a measured run. *)
let calib_per_solve = 3

(* One measured run, in a fresh process: set up (generate instances
   [ks] and warm up), then solve each once, each solve after a short
   calibration burst. *)
let measured_run ~seed ~ks =
  let report = Report.create () in
  let gs, setup_s =
    Measure.time (fun () ->
        let gs = List.map (fun k -> (k, Inputs.vcycle_graph ~seed k)) ks in
        warm_up ~seed;
        gs)
  in
  let calib = ref [] in
  let solved =
    List.map
      (fun (k, g) ->
        calib := Measure.calibrate calib_per_solve @ !calib;
        let r, dt = Measure.time (fun () -> solve ~seed ~k g) in
        Report.check_bisection report g r.G.bisection (Printf.sprintf "instance %d" k);
        (G.Bisection.cut r.G.bisection, dt))
      gs
  in
  let cut = List.fold_left (fun a (c, _) -> a + c) 0 solved and solves = List.map snd solved in
  Printf.printf "vcycle-gnp instances %d-%d: cut %d, median solve %.3f s\n" (List.hd ks)
    (List.nth ks (List.length ks - 1)) cut (Measure.median solves);
  Report.sample report ~setup_s ~solves ~cut ~calib:!calib

(* The summary behind solve_s: the median over every instance of the
   run. *)
let solve_s (samples : Measure.sample list) =
  Measure.median (List.concat_map (fun (s : Measure.sample) -> s.solves) samples)

(* The traced run works on instance 0. *)
let traced report ~seed =
  let k = 0 in
  let g, generate_s = Measure.time (fun () -> Inputs.vcycle_graph ~seed k) in
  warm_up ~seed;
  let plain, plain_s = Measure.time (fun () -> solve ~seed ~k g) in
  let cut = G.Bisection.cut plain.G.bisection in
  Report.check_bisection report g plain.G.bisection "untraced solve";
  let t = traced_solve ~seed ~k g in
  Report.check_bisection report g t.bisection "traced solve";
  Report.check report (G.Bisection.cut t.bisection = cut)
    "traced cut %d differs from untraced cut %d" (G.Bisection.cut t.bisection) cut;
  let traced_s = Span.duration t.root in
  let replay = Span.create () in
  let chain = replay_coarsening replay ~seed ~k g in
  Report.check report (chain = t.levels)
    "replayed coarsening chain differs from the solve's (%d vs %d levels)"
    (List.length chain) (List.length t.levels);
  G.Pool.set_jobs 1;
  let one, jobs1_s = Measure.time (fun () -> solve ~seed ~k g) in
  G.Pool.set_jobs 2;
  Report.check report (G.Bisection.cut one.G.bisection = cut) "1-domain cut differs from 2-domain cut";
  let fm = t.fm_calls in
  let sumf f = Measure.sum (List.map f fm) in
  let fm_s = sumf (fun c -> c.seconds) in
  let passes = sumf (fun c -> float_of_int c.stats.G.Fm.passes) in
  let finest = List.nth fm (List.length fm - 1) in
  let set = Report.set report in
  set "models.generate_s" generate_s;
  set "kl.fm_refine_s" fm_s;
  set "kl.fm_refine_finest_s" finest.seconds;
  set "kl.fm_passes" passes;
  set "kl.fm_pass_ms" (1000. *. fm_s /. Float.max 1. passes);
  set "kl.fm_moves" (sumf (fun c -> float_of_int c.stats.G.Fm.moves));
  set "kl.fm_alloc_mw" (sumf (fun c -> c.words) /. 1e6);
  set "compaction.coarsen_s" (Span.total t.spans "compaction.coarsen");
  set "compaction.coarse_refine_s" (List.hd fm).seconds;
  set "compaction.project_s" (Span.total t.spans "compaction.project");
  set "compaction.levels" (float_of_int t.stats.G.Compaction.levels);
  set "compaction.coarsest_vertices" (float_of_int t.stats.G.Compaction.coarse_vertices);
  set "graph.match_s" (Span.total replay "graph.match");
  set "graph.contract_s" (Span.total replay "graph.contract");
  set "par.jobs1_solve_s" jobs1_s;
  set "par.speedup" (jobs1_s /. plain_s);
  set "bench.trace_overhead_frac" ((traced_s /. plain_s) -. 1.);
  Printf.printf "vcycle-gnp traced: %.3f s (untraced %.3f s), self time by layer:%s\n" traced_s
    plain_s
    (String.concat ""
       (List.map (fun (l, v) -> Printf.sprintf " %s %.3f" l v)
          (Span.self_by_layer t.spans ~root:t.root.id)))
