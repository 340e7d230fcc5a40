(* The metric catalogue and the result line.

   BENCHMARK.json at the repository root declares the same workloads
   and metrics; test_bench holds the two equal. Every workload prints
   every end-to-end metric (untraced run) or every per-layer metric
   (traced run): a per-layer metric a workload does not exercise reads
   0, and README.md lists where each one is measured. *)

type better = Lower | Higher

let workloads =
  [
    ( "vcycle-gnp",
      "2-domain mlfm V-cycles on 30k-vertex degree-4 Gnp graphs: FM refinement, \
       coarsening and the chunked par kernels, no SA, KL or protocol" );
    ( "paper-mix",
      "the paper's protocol: KL, SA, CKL and CSA best-of-2 over a corpus of \
       5000-vertex paper models; no FM, no deep V-cycle, no daemon" );
    ( "serve-open",
      "the serve daemon driven open-loop at 5/s: small ckl/mlfm/kl/xsa solves, \
       28% cache hits, 4% 20k-vertex mlfm solves, and a ping stream" );
  ]

(* name, unit, direction, bound (share of the parent's median). *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("solve_s", "s", Lower, 0.24);
    ("cut", "count", Lower, 0.15);
    ("peak_rss_mb", "MiB", Lower, 0.2);
  ]

let per_layer =
  [
    ("models.generate_s", "s", Lower);
    ("graph.match_s", "s", Lower);
    ("graph.contract_s", "s", Lower);
    ("kl.fm_refine_s", "s", Lower);
    ("kl.fm_refine_finest_s", "s", Lower);
    ("kl.fm_pass_ms", "ms", Lower);
    ("kl.fm_passes", "count", Lower);
    ("kl.fm_moves", "count", Lower);
    ("kl.fm_alloc_mw", "Mwords", Lower);
    ("kl.kl_refine_s", "s", Lower);
    ("kl.kl_passes", "count", Lower);
    ("kl.kl_swaps", "count", Lower);
    ("kl.kl_corpus_s", "s", Lower);
    ("anneal.sa_refine_s", "s", Lower);
    ("anneal.sa_attempted", "count", Lower);
    ("anneal.sa_accept_ratio", "ratio", Higher);
    ("anneal.sa_corpus_s", "s", Lower);
    ("compaction.coarsen_s", "s", Lower);
    ("compaction.coarse_refine_s", "s", Lower);
    ("compaction.project_s", "s", Lower);
    ("compaction.levels", "count", Lower);
    ("compaction.coarsest_vertices", "count", Lower);
    ("compaction.ckl_coarse_s", "s", Lower);
    ("compaction.ckl_final_s", "s", Lower);
    ("compaction.csa_coarse_s", "s", Lower);
    ("compaction.csa_final_s", "s", Lower);
    ("compaction.ckl_corpus_s", "s", Lower);
    ("compaction.csa_corpus_s", "s", Lower);
    ("par.jobs1_solve_s", "s", Lower);
    ("par.speedup", "x", Higher);
    ("serve.p50_ms", "ms", Lower);
    ("serve.p99_ms", "ms", Lower);
    ("serve.parse_ms", "ms", Lower);
    ("serve.encode_ms", "ms", Lower);
    ("serve.handle_miss_ms", "ms", Lower);
    ("serve.handle_hit_ms", "ms", Lower);
    ("serve.solve_ms", "ms", Lower);
    ("serve.wait_ms.p50", "ms", Lower);
    ("serve.wait_ms.p99", "ms", Lower);
    ("serve.ping_p99_ms", "ms", Lower);
    ("serve.late_ms.p99", "ms", Lower);
    ("serve.overloaded", "count", Lower);
    ("race.xsa_handle_ms", "ms", Lower);
    ("race.xsa_run_ms", "ms", Lower);
    ("store.hit_frac", "ratio", Higher);
    ("bench.trace_overhead_frac", "ratio", Lower);
    ("bench.host_slowdown", "x", Lower);
  ]

let better_id = function Lower -> "lower" | Higher -> "higher"

(* ------------------------------------------------------------------ *)
(* One run's outcome                                                   *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable values : (string * float) list;  (* newest first *)
}

let create () = { attempted = 0; failed = 0; values = [] }

(* One checked operation: a solve, a served request, an equality the
   run must hold. A failure is reported on stderr and counted. *)
let check r ok fmt =
  Printf.ksprintf
    (fun msg ->
      r.attempted <- r.attempted + 1;
      if not ok then begin
        r.failed <- r.failed + 1;
        Printf.eprintf "perfbench: check failed: %s\n%!" msg
      end)
    fmt

let check_bisection r g b what =
  let module B = Gbisect.Bisection in
  check r
    (B.is_balanced b && B.cut b = B.compute_cut g (B.sides b))
    "%s: bisection is unbalanced or its cut differs from compute_cut" what

let set r name v = r.values <- (name, v) :: List.remove_assoc name r.values
let get r name = List.assoc_opt name r.values

let catalogue ~trace =
  if trace then List.map (fun (n, u, _) -> (n, u)) per_layer
  else List.map (fun (n, u, _, _) -> (n, u)) end_to_end

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The last stdout line: exactly the catalogue's metrics, in its order.
   Per-layer metrics a workload does not trace default to 0; an
   end-to-end metric that was not measured, or is not a finite
   positive number, fails the run. *)
let to_line r ~trace =
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          match get r name with
          | Some v -> v
          | None when trace -> 0.
          | None -> nan
        in
        if trace then check r (Float.is_finite v) "metric %s is %g" name v
        else check r (Float.is_finite v && v > 0.) "metric %s is %g" name v;
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      (catalogue ~trace)
  in
  let known = List.map fst (catalogue ~trace) in
  List.iter
    (fun (name, _) -> check r (List.mem name known) "metric %s is not in the catalogue" name)
    r.values;
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) (max 1 r.attempted) r.failed (String.concat ", " metrics)

(* The summary line behind a normalised solve_s. *)
let print_normalised ~calib ~raw v =
  Printf.printf "solve_s: measured %.4f s, host slowdown %.4f, normalised %.4f s\n" raw
    (Measure.median calib) v

(* The end-to-end metrics of a batch workload from its measured runs:
   set-up time and peak RSS are medians over runs, the cut is summed,
   and solve_s is the workload's own summary ([solve_s]) of the runs'
   solve times, each first normalised by its own run's calibration:
   runs are separate processes and can differ in speed. *)
let set_batch r (samples : Measure.sample list) ~solve_s =
  List.iter
    (fun (s : Measure.sample) ->
      r.attempted <- r.attempted + s.attempted;
      r.failed <- r.failed + s.failed)
    samples;
  let median f = Measure.median (List.map f samples) in
  set r "setup_s" (median (fun s -> s.setup_s));
  let normalised =
    List.map
      (fun (s : Measure.sample) ->
        { s with solves = List.map (Measure.normalise ~calib:s.calib) s.solves })
      samples
  in
  let v = solve_s normalised in
  print_normalised ~calib:(List.concat_map (fun (s : Measure.sample) -> s.calib) samples)
    ~raw:(solve_s samples) v;
  set r "solve_s" v;
  set r "peak_rss_mb" (median (fun s -> s.rss_mb));
  set r "cut" (float_of_int (List.fold_left (fun a s -> a + s.Measure.cut) 0 samples))

(* A measured run's own result, as its process prints it. *)
let sample r ~setup_s ~solves ~calib ~cut =
  {
    Measure.setup_s;
    solves;
    calib;
    rss_mb = Measure.vm_hwm_mb "self";
    cut;
    attempted = r.attempted;
    failed = r.failed;
  }
