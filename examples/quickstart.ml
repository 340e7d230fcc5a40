(* Quickstart: generate a sparse planted graph where plain KL and SA
   struggle, and watch compaction fix both — the paper's headline.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  let rng = Gbisect.Rng.create ~seed:7 in

  (* A 1000-vertex 3-regular graph with a planted bisection of width 8:
     the true cut is almost surely 8, but the graph's average degree is
     low enough that local search gets stuck (paper, Observation 1). *)
  let params = Gbisect.Bregular.{ two_n = 1000; b = 8; d = 3 } in
  let params =
    { params with Gbisect.Bregular.b = Gbisect.Bregular.nearest_feasible_b params }
  in
  let graph = Gbisect.Bregular.generate rng params in
  Format.printf "instance: %a, planted cut %d@." Gbisect.Graph.pp graph
    params.Gbisect.Bregular.b;

  (* The paper's four algorithms (best of two random starts each). *)
  List.iter
    (fun algorithm ->
      let result = Gbisect.solve ~algorithm ~starts:2 rng graph in
      Format.printf "  %-4s cut %4d  (%.3fs)@."
        (Gbisect.Solvers.name algorithm)
        (Gbisect.Bisection.cut result.Gbisect.bisection)
        result.Gbisect.seconds)
    [ `Sa; `Kl; `Csa; `Ckl ];

  (* Compaction in slow motion: matching, contraction, coarse solve. *)
  let matching = Gbisect.Matching.random_maximal rng graph in
  let contraction = Gbisect.Contraction.contract graph matching in
  let coarse = contraction.Gbisect.Contraction.coarse in
  Format.printf "compaction: %d vertices -> %d, average degree %.2f -> %.2f@."
    (Gbisect.Graph.n_vertices graph)
    (Gbisect.Graph.n_vertices coarse)
    (Gbisect.Graph.average_degree graph)
    (Gbisect.Graph.average_degree coarse)
