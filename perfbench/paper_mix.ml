(* paper-mix: the paper's protocol. KL, SA, CKL and CSA each solve every
   corpus instance best-of-2 (Gbisect.solve ~starts:2, the two starts
   on the 2-domain pool). *)

module G = Gbisect

(* Untimed warm-up: every algorithm once on a 600-vertex corpus of the
   same models. *)
let warm_up ~seed =
  List.iter
    (fun (_, algorithm) ->
      List.iter
        (fun (_, g) -> ignore (G.solve ~algorithm ~starts:2 (G.Rng.create ~seed) g))
        (Inputs.paper_corpus ~n:600 ~seed (-1)))
    Inputs.paper_algorithms

(* One (algorithm, instance) cell. *)
type cell = { alg : string; label : string; cut : int; seconds : float }

let solve_cell ~seed ~k (alg, algorithm) (label, g) =
  G.solve ~algorithm ~starts:2 (G.Rng.create ~seed:(Inputs.cell_seed ~seed k alg label)) g

(* Calibration repetitions before each cell of a measured run. *)
let calib_per_cell = 2

(* One pass over every cell of corpus [k], untraced; with [calib], the
   slowdowns read by a short calibration burst before each cell are
   added to it. *)
let pass ?calib report ~seed ~k corpus =
  List.concat_map
    (fun ((alg, _) as a) ->
      List.map
        (fun ((label, g) as inst) ->
          Option.iter (fun c -> c := Measure.calibrate ~domains:2 calib_per_cell @ !c) calib;
          let r, seconds = Measure.time (fun () -> solve_cell ~seed ~k a inst) in
          Report.check_bisection report g r.G.bisection (alg ^ " on " ^ label);
          { alg; label; cut = G.Bisection.cut r.G.bisection; seconds })
        corpus)
    Inputs.paper_algorithms

let algorithm_seconds cells alg =
  Measure.sum (List.filter_map (fun c -> if c.alg = alg then Some c.seconds else None) cells)

let total_cut cells = List.fold_left (fun a c -> a + c.cut) 0 cells

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)

(* Per-start layer accumulators. Each start runs on its own domain, so
   it owns one of these; they are summed after the join. *)
type acc = {
  mutable kl_s : float;
  mutable kl_passes : int;
  mutable kl_swaps : int;
  mutable sa_s : float;
  mutable sa_attempted : int;
  mutable sa_accepted : int;
  mutable coarse_s : float;  (* base heuristic on the contracted graph *)
  mutable final_s : float;  (* base heuristic on the original graph *)
}

let acc () =
  { kl_s = 0.; kl_passes = 0; kl_swaps = 0; sa_s = 0.; sa_attempted = 0; sa_accepted = 0;
    coarse_s = 0.; final_s = 0. }

let add a b =
  a.kl_s <- a.kl_s +. b.kl_s;
  a.kl_passes <- a.kl_passes + b.kl_passes;
  a.kl_swaps <- a.kl_swaps + b.kl_swaps;
  a.sa_s <- a.sa_s +. b.sa_s;
  a.sa_attempted <- a.sa_attempted + b.sa_attempted;
  a.sa_accepted <- a.sa_accepted + b.sa_accepted;
  a.coarse_s <- a.coarse_s +. b.coarse_s;
  a.final_s <- a.final_s +. b.final_s

let kl_refine a g side =
  let (side, st), dt = Measure.time (fun () -> G.Kl.refine g side) in
  a.kl_s <- a.kl_s +. dt;
  a.kl_passes <- a.kl_passes + st.G.Kl.passes;
  a.kl_swaps <- a.kl_swaps + st.G.Kl.swaps;
  (side, dt)

let sa_refine a rng g side =
  let (side, st), dt = Measure.time (fun () -> G.Sa_bisect.refine rng g side) in
  a.sa_s <- a.sa_s +. dt;
  a.sa_attempted <- a.sa_attempted + st.G.Sa_bisect.sa.G.Sa.attempted;
  a.sa_accepted <- a.sa_accepted + st.G.Sa_bisect.sa.G.Sa.accepted;
  (side, dt)

(* Compaction.bisect calls its refiner twice: on the contracted graph,
   then on the original graph. *)
let compacted a refine rng g =
  let calls = ref 0 in
  let refiner rng g side =
    let side, dt = refine rng g side in
    incr calls;
    if !calls = 1 then a.coarse_s <- a.coarse_s +. dt else a.final_s <- a.final_s +. dt;
    side
  in
  fst (G.Compaction.bisect ~refiner rng g)

(* One start of Gbisect.run_once, calling the layers directly. *)
let traced_start algorithm a rng g =
  match algorithm with
  | `Kl ->
      let side, _ = kl_refine a g (G.Initial.random rng g) in
      G.Bisection.of_sides g side
  | `Sa ->
      let side, _ = sa_refine a rng g (G.Initial.random rng g) in
      G.Bisection.of_sides g side
  | `Ckl -> compacted a (fun _ g side -> kl_refine a g side) rng g
  | `Csa -> compacted a (sa_refine a) rng g
  | _ -> invalid_arg "Paper_mix.traced_start"

(* Gbisect.solve ~starts:2, unrolled: the same seed derivation, both
   starts on the pool, the lower cut winning and ties going to start 0. *)
let traced_cell ~seed ~k (alg, algorithm) (label, g) =
  let rng = G.Rng.create ~seed:(Inputs.cell_seed ~seed k alg label) in
  let base = G.Rng.derive_seed rng in
  let starts =
    G.Pool.init (G.Pool.current ()) 2 (fun i ->
        let a = acc () in
        (traced_start algorithm a (G.Rng.substream ~base i) g, a))
  in
  let b0, a0 = starts.(0) and b1, a1 = starts.(1) in
  add a0 a1;
  ((if G.Bisection.cut b1 < G.Bisection.cut b0 then b1 else b0), a0)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)

let print_cells cells =
  Printf.printf "paper-mix:";
  List.iter
    (fun (alg, _) -> Printf.printf " %s_s %.3f" alg (algorithm_seconds cells alg))
    Inputs.paper_algorithms;
  Printf.printf " cut %d\n" (total_cut cells)

(* One measured run, in a fresh process: set up (generate corpus [k]
   and warm up), then one pass over its cells. *)
let measured_run ~seed ~k =
  let report = Report.create () in
  let corpus, setup_s =
    Measure.time (fun () ->
        let corpus = Inputs.paper_corpus ~seed k in
        warm_up ~seed;
        corpus)
  in
  let calib = ref [] in
  let cells = pass ~calib report ~seed ~k corpus in
  print_cells cells;
  Report.sample report ~setup_s ~solves:(List.map (fun c -> c.seconds) cells) ~cut:(total_cut cells)
    ~calib:!calib

(* The summary behind solve_s: the time of one pass over a corpus,
   summed over its cells, each cell's time the median across the run's
   corpora (one per measured run, the cells in the same order). *)
let solve_s (samples : Measure.sample list) =
  Measure.sum_of_medians (List.map (fun (s : Measure.sample) -> s.Measure.solves) samples)

(* The traced run works on corpus 0. *)
let traced report ~seed =
  let k = 0 and corpus = Inputs.paper_corpus ~seed 0 in
  warm_up ~seed;
  let plain, plain_s = Measure.time (fun () -> pass report ~seed ~k corpus) in
  print_cells plain;
  let total = acc () and by_alg = Hashtbl.create 4 in
  let (), traced_s =
    Measure.time (fun () ->
        List.iter
          (fun ((alg, _) as a) ->
            let per = acc () in
            Hashtbl.replace by_alg alg per;
            List.iter
              (fun ((label, g) as inst) ->
                let b, cell_acc = traced_cell ~seed ~k a inst in
                add per cell_acc;
                Report.check_bisection report g b (alg ^ " traced on " ^ label);
                let expected = List.find (fun c -> c.alg = alg && c.label = label) plain in
                Report.check report (G.Bisection.cut b = expected.cut)
                  "%s on %s: traced cut %d differs from untraced cut %d" alg label
                  (G.Bisection.cut b) expected.cut)
              corpus;
            add total per)
          Inputs.paper_algorithms)
  in
  let set = Report.set report in
  set "kl.kl_refine_s" total.kl_s;
  set "kl.kl_passes" (float_of_int total.kl_passes);
  set "kl.kl_swaps" (float_of_int total.kl_swaps);
  set "anneal.sa_refine_s" total.sa_s;
  set "anneal.sa_attempted" (float_of_int total.sa_attempted);
  set "anneal.sa_accept_ratio"
    (float_of_int total.sa_accepted /. float_of_int (max 1 total.sa_attempted));
  let ckl = Hashtbl.find by_alg "ckl" and csa = Hashtbl.find by_alg "csa" in
  set "compaction.ckl_coarse_s" ckl.coarse_s;
  set "compaction.ckl_final_s" ckl.final_s;
  set "compaction.csa_coarse_s" csa.coarse_s;
  set "compaction.csa_final_s" csa.final_s;
  set "kl.kl_corpus_s" (algorithm_seconds plain "kl");
  set "anneal.sa_corpus_s" (algorithm_seconds plain "sa");
  set "compaction.ckl_corpus_s" (algorithm_seconds plain "ckl");
  set "compaction.csa_corpus_s" (algorithm_seconds plain "csa");
  set "bench.trace_overhead_frac" ((traced_s /. plain_s) -. 1.)
