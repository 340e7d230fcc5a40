(* The benchmark's own tests: its catalogue matches BENCHMARK.json, its
   inputs are a pure function of the seed, and the traced run's layer
   self times add up. *)

open Perfbench
module G = Gbisect
module Json = G.Obs.Json

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  Json.of_string s

let list key j =
  match Json.member key j with Some (Json.List l) -> l | _ -> Alcotest.failf "no list %S" key

let str key j =
  match Json.member key j with Some (Json.String s) -> s | _ -> Alcotest.failf "no string %S" key

let num key j =
  match Option.bind (Json.member key j) Json.to_float with
  | Some v -> v
  | None -> Alcotest.failf "no number %S" key

let strings = Alcotest.(list string)

(* Keys of the "metrics" object of a printed result line. *)
let printed_metrics ~trace =
  let r = Report.create () in
  List.iter (fun (name, _) -> Report.set r name 1.5) (Report.catalogue ~trace);
  match Json.member "metrics" (Json.of_string (Report.to_line r ~trace)) with
  | Some (Json.Obj kvs) -> List.map fst kvs
  | _ -> Alcotest.fail "result line has no metrics object"

let catalogue_tests =
  [
    Alcotest.test_case "workloads match BENCHMARK.json" `Quick (fun () ->
        let j = benchmark_json () in
        Alcotest.(check (list (pair string string)))
          "workloads" Report.workloads
          (List.map (fun w -> (str "name" w, str "why" w)) (list "workloads" j)));
    Alcotest.test_case "end-to-end metrics match BENCHMARK.json" `Quick (fun () ->
        let j = benchmark_json () in
        let declared =
          List.map
            (fun m -> (str "name" m, str "unit" m, str "better" m, num "bound" m))
            (list "end_to_end" j)
        in
        let ours =
          List.map (fun (n, u, b, bound) -> (n, u, Report.better_id b, bound)) Report.end_to_end
        in
        Alcotest.(check (list (pair string (pair string (pair string (float 0.))))))
          "end_to_end"
          (List.map (fun (n, u, b, x) -> (n, (u, (b, x)))) ours)
          (List.map (fun (n, u, b, x) -> (n, (u, (b, x)))) declared);
        Alcotest.check strings "printed" (List.map (fun (n, _, _, _) -> n) Report.end_to_end)
          (printed_metrics ~trace:false));
    Alcotest.test_case "per-layer metrics match BENCHMARK.json" `Quick (fun () ->
        let j = benchmark_json () in
        let declared =
          List.map (fun m -> (str "name" m, (str "unit" m, str "better" m))) (list "per_layer" j)
        in
        Alcotest.(check (list (pair string (pair string string))))
          "per_layer"
          (List.map (fun (n, u, b) -> (n, (u, Report.better_id b))) Report.per_layer)
          declared;
        Alcotest.check strings "printed" (List.map (fun (n, _, _) -> n) Report.per_layer)
          (printed_metrics ~trace:true));
    Alcotest.test_case "a missing end-to-end metric fails the run" `Quick (fun () ->
        let r = Report.create () in
        ignore (Report.to_line r ~trace:false);
        Alcotest.(check bool) "failed" true (r.Report.failed > 0));
  ]

(* Stable byte renderings of the inputs. *)
let corpus_bytes corpus =
  String.concat "\n"
    (List.map (fun (label, g) -> label ^ "\n" ^ G.Graph_io.to_edge_list_string g) corpus)

let plan_bytes (plan : Inputs.plan) =
  String.concat "\n" (Array.to_list (Array.map (fun (q : Inputs.query) -> q.line) plan.queries))

let input_tests =
  [
    Alcotest.test_case "corpus is byte-identical for the same seed" `Quick (fun () ->
        let bytes seed = corpus_bytes (Inputs.paper_corpus ~seed 0) in
        Alcotest.(check bool) "same seed" true (String.equal (bytes 7) (bytes 7));
        Alcotest.(check bool) "other seed" false (String.equal (bytes 7) (bytes 8)));
    Alcotest.test_case "request plan is byte-identical for the same seed" `Quick (fun () ->
        let bytes seed = plan_bytes (Inputs.serve_plan ~seed ~count:120) in
        Alcotest.(check bool) "same seed" true (String.equal (bytes 7) (bytes 7));
        Alcotest.(check bool) "other seed" false (String.equal (bytes 7) (bytes 8)));
    Alcotest.test_case "vcycle graph is byte-identical for the same seed" `Quick (fun () ->
        let bytes seed = G.Graph_io.to_edge_list_string (Inputs.vcycle_graph ~n:5000 ~seed 0) in
        Alcotest.(check bool) "same seed" true (String.equal (bytes 7) (bytes 7)));
    Alcotest.test_case "plan repeats about 30% of queries" `Quick (fun () ->
        let plan = Inputs.serve_plan ~seed:3 ~count:200 in
        let repeats =
          Array.fold_left (fun a (q : Inputs.query) -> if q.repeat_of = None then a else a + 1) 0
            plan.Inputs.queries
        in
        Alcotest.(check bool) "share" true (repeats >= 50 && repeats <= 62));
  ]

let trace_tests =
  [
    Alcotest.test_case "vcycle layer self times sum to at most the traced total" `Quick
      (fun () ->
        let g = Inputs.vcycle_graph ~n:20_000 ~seed:3 0 in
        let t = Vcycle.traced_solve ~seed:3 ~k:0 g in
        let root = t.Vcycle.root in
        let selfs = Span.self_by_layer t.Vcycle.spans ~root:root.Span.id in
        Alcotest.(check strings) "layers" [ "compaction"; "kl" ] (List.map fst selfs);
        List.iter (fun (l, v) -> Alcotest.(check bool) (l ^ " self >= 0") true (v >= 0.)) selfs;
        let total = List.fold_left (fun a (_, v) -> a +. v) 0. selfs in
        Alcotest.(check bool) "sum <= total" true (total <= Span.duration root +. 1e-9));
    Alcotest.test_case "traced vcycle equals the untraced solve and its replay" `Quick
      (fun () ->
        let g = Inputs.vcycle_graph ~n:20_000 ~seed:4 0 in
        let t = Vcycle.traced_solve ~seed:4 ~k:0 g in
        let plain = Vcycle.solve ~seed:4 ~k:0 g in
        Alcotest.(check int) "cut" (G.Bisection.cut plain.G.bisection) (G.Bisection.cut t.Vcycle.bisection);
        let chain = Vcycle.replay_coarsening (Span.create ()) ~seed:4 ~k:0 g in
        Alcotest.(check (list (pair int int))) "chain" t.Vcycle.levels chain);
  ]

let measure_tests =
  [
    Alcotest.test_case "slices cover every instance once, in order" `Quick (fun () ->
        List.iter
          (fun n ->
            let slices = Measure.slices n in
            Alcotest.(check (list int)) "instances" (List.init n Fun.id) (List.concat slices);
            Alcotest.(check int) "runs" (min Measure.setups n) (List.length slices))
          [ 1; 3; 5; 37; 50 ]);
    Alcotest.test_case "sum of per-cell medians drops one slow run" `Quick (fun () ->
        let runs = [ [ 1.; 2. ]; [ 1.; 9. ]; [ 1.; 2. ] ] in
        Alcotest.(check (float 1e-12)) "sum" 3. (Measure.sum_of_medians runs));
    Alcotest.test_case "a measured run's result survives its line" `Quick (fun () ->
        let s =
          { Measure.setup_s = 0.25; solves = [ 0.1; 1. /. 3. ]; calib = [ 0.012 ]; rss_mb = 40.5;
            cut = 123; attempted = 7; failed = 1 }
        in
        Alcotest.(check bool) "round trip" true (Measure.sample_of_line (Measure.sample_to_line s) = s));
    Alcotest.test_case "normalisation divides by the median slowdown" `Quick (fun () ->
        Alcotest.(check (float 1e-12)) "halved" 0.5 (Measure.normalise ~calib:[ 2.; 1.; 3. ] 1.));
  ]

let () =
  Alcotest.run "perfbench"
    [
      ("catalogue", catalogue_tests);
      ("inputs", input_tests);
      ("measure", measure_tests);
      ("trace", trace_tests);
    ]
