(* The paper's special graphs — ladder (Figure 3), grid and binary
   tree — with all four algorithms, plus a DOT rendering of the ladder
   bisection for the Figure 3 illustration.

   These families have known optimal widths (ladder 2, N x N grid N,
   complete binary tree 1), so the output shows at a glance how close
   each heuristic gets and what compaction buys (Table 1 / Obs 3).

   Run with:  dune exec examples/special_graphs.exe *)

let algorithms = [ `Sa; `Csa; `Kl; `Ckl ]

let report name graph ~optimal rng =
  Format.printf "%s (%d vertices, optimal width %s):@." name
    (Gbisect.Graph.n_vertices graph)
    optimal;
  List.iter
    (fun algorithm ->
      let result = Gbisect.solve ~algorithm ~starts:2 rng graph in
      Format.printf "  %-4s cut %4d  (%.3fs)@."
        (Gbisect.Solvers.name algorithm)
        (Gbisect.Bisection.cut result.Gbisect.bisection)
        result.Gbisect.seconds)
    algorithms

let () =
  let rng = Gbisect.Rng.create ~seed:3 in
  report "ladder 2x400" (Gbisect.Classic.ladder 400) ~optimal:"2" rng;
  report "grid 30x30" (Gbisect.Classic.grid_of_side 30) ~optimal:"30" rng;
  report "binary tree (1023)" (Gbisect.Classic.binary_tree ~depth:9) ~optimal:"1" rng;
  report "circular ladder (prism, 800)" (Gbisect.Classic.circular_ladder 400) ~optimal:"4"
    rng;

  (* Figure 3: small ladder, bisected, rendered as DOT. *)
  let ladder = Gbisect.Classic.ladder 8 in
  let result = Gbisect.solve ~algorithm:`Ckl rng ladder in
  let dot =
    Gbisect.Graph_io.to_dot
      ~highlight_cut:(Gbisect.Bisection.sides result.Gbisect.bisection)
      ladder
  in
  print_endline "\nFigure 3 — ladder graph bisection (GraphViz source):";
  print_string dot
