(* Tests for the extension modules: induced subgraphs, spectral
   bisection, k-way recursive partitioning and the METIS writer. *)

module Graph = Gbisect.Graph
module Classic = Gbisect.Classic
module Subgraph = Gbisect.Subgraph
module Spectral = Gbisect.Spectral
module Kway = Gbisect.Kway
module Bisection = Gbisect.Bisection
module Gio = Gbisect.Graph_io
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Subgraph ------------------------------------------------------------- *)

let subgraph_tests =
  [
    case "induced keeps internal edges only" (fun () ->
        let g = Classic.cycle 6 in
        let sub = Subgraph.induced g [| 0; 1; 2 |] in
        Helpers.check_graph_ok sub.Subgraph.graph;
        check_int "n" 3 (Graph.n_vertices sub.Subgraph.graph);
        check_int "m (path 0-1-2)" 2 (Graph.n_edges sub.Subgraph.graph);
        check_bool "edge 0-1" true (Graph.mem_edge sub.Subgraph.graph 0 1);
        check_bool "no edge 0-2" false (Graph.mem_edge sub.Subgraph.graph 0 2));
    case "mappings are mutually inverse" (fun () ->
        let g = Classic.grid ~rows:4 ~cols:4 in
        let keep = [| 3; 7; 1; 15 |] in
        let sub = Subgraph.induced g keep in
        Array.iteri
          (fun i v ->
            check_int "to_parent" v sub.Subgraph.to_parent.(i);
            check_int "from_parent" i sub.Subgraph.from_parent.(v))
          keep;
        check_int "others unmapped" (-1) sub.Subgraph.from_parent.(0));
    case "weights survive" (fun () ->
        let g =
          Graph.of_edges ~vertex_weights:[| 1; 5; 2 |] ~n:3 [ (0, 1, 7); (1, 2, 3) ]
        in
        let sub = Subgraph.induced g [| 1; 2 |] in
        check_int "vertex weight" 5 (Graph.vertex_weight sub.Subgraph.graph 0);
        check_int "edge weight" 3 (Graph.edge_weight sub.Subgraph.graph 0 1));
    case "duplicates and bad ids rejected" (fun () ->
        let g = Classic.path 4 in
        Alcotest.check_raises "dup" (Invalid_argument "Subgraph.induced: duplicate id")
          (fun () -> ignore (Subgraph.induced g [| 1; 1 |]));
        Alcotest.check_raises "range" (Invalid_argument "Subgraph.induced: id out of range")
          (fun () -> ignore (Subgraph.induced g [| 9 |])));
    case "induced_by_side selects the side" (fun () ->
        let g = Classic.path 6 in
        let sub = Subgraph.induced_by_side g [| 0; 0; 0; 1; 1; 1 |] 1 in
        check_int "n" 3 (Graph.n_vertices sub.Subgraph.graph);
        Alcotest.(check (array int)) "members" [| 3; 4; 5 |] sub.Subgraph.to_parent);
    case "lift_sides round-trips parent ids" (fun () ->
        let g = Classic.path 4 in
        let sub = Subgraph.induced g [| 2; 0 |] in
        Alcotest.(check (list (pair int int)))
          "lifting" [ (2, 1); (0, 0) ]
          (Subgraph.lift_sides sub [| 1; 0 |]));
  ]

let subgraph_properties =
  [
    Helpers.qtest "cut decomposes over the two induced halves plus the boundary"
      (Helpers.gen_even_graph ~max_n:20 ()) (fun g ->
        let r = Helpers.rng () in
        let side = Helpers.balanced_sides r g in
        let cut = Bisection.compute_cut g side in
        let sub0 = Subgraph.induced_by_side g side 0 in
        let sub1 = Subgraph.induced_by_side g side 1 in
        Graph.total_edge_weight g
        = cut
          + Graph.total_edge_weight sub0.Subgraph.graph
          + Graph.total_edge_weight sub1.Subgraph.graph);
  ]

(* --- Spectral ---------------------------------------------------------------- *)

let spectral_tests =
  [
    case "fiedler vector is centred and normalised" (fun () ->
        let g = Classic.grid ~rows:5 ~cols:5 in
        let f = Spectral.fiedler_vector g in
        let sum = Array.fold_left ( +. ) 0. f in
        let norm = Array.fold_left (fun a v -> a +. (v *. v)) 0. f in
        check_bool "mean ~ 0" true (Float.abs sum < 1e-6);
        check_bool "unit norm" true (Float.abs (norm -. 1.) < 1e-6));
    case "fiedler vector of a path is monotone along it" (fun () ->
        let g = Classic.path 12 in
        let f = Spectral.fiedler_vector g in
        let increasing = ref true and decreasing = ref true in
        for i = 0 to 10 do
          if f.(i) > f.(i + 1) then increasing := false;
          if f.(i) < f.(i + 1) then decreasing := false
        done;
        check_bool "monotone" true (!increasing || !decreasing));
    case "spectral bisection of a path is optimal" (fun () ->
        let g = Classic.path 20 in
        let b = Spectral.bisect g in
        check_bool "balanced" true (Bisection.is_balanced b);
        check_int "cut 1" 1 (Bisection.cut b));
    case "spectral bisection of a ladder is optimal" (fun () ->
        let g = Classic.ladder 20 in
        check_int "cut 2" 2 (Bisection.cut (Spectral.bisect g)));
    case "spectral separates two loosely joined cliques" (fun () ->
        let edges = ref [] in
        for u = 0 to 6 do
          for v = u + 1 to 6 do
            edges := (u, v) :: (7 + u, 7 + v) :: !edges
          done
        done;
        edges := (0, 7) :: !edges;
        let g = Graph.of_unweighted_edges ~n:14 !edges in
        check_int "bridge found" 1 (Bisection.cut (Spectral.bisect g)));
    case "spectral recovers planted bisections (Boppana regime)" (fun () ->
        let params = Gbisect.Bregular.{ two_n = 300; b = 4; d = 4 } in
        let g = Gbisect.Bregular.generate (Helpers.rng ()) params in
        let b = Spectral.bisect g in
        check_bool
          (Printf.sprintf "cut %d close to planted 4" (Bisection.cut b))
          true
          (Bisection.cut b <= 12));
    case "spectral + KL refinement is at least as good" (fun () ->
        let g = Classic.grid ~rows:8 ~cols:9 in
        let raw = Spectral.bisect g in
        let refined =
          Spectral.bisect_refined ~refine:(fun g s -> fst (Gbisect.Kl.refine g s)) g
        in
        check_bool "refined <= raw" true (Bisection.cut refined <= Bisection.cut raw));
    case "degenerate graphs do not crash" (fun () ->
        check_int "empty graph" 0 (Bisection.cut (Spectral.bisect (Graph.empty 4)));
        check_int "single vertex" 0 (Bisection.cut (Spectral.bisect (Graph.empty 1)));
        check_int "zero vertices" 0 (Array.length (Spectral.fiedler_vector (Graph.empty 0))));
    case "deterministic" (fun () ->
        let g = Classic.grid ~rows:6 ~cols:6 in
        check_int "same cut" (Bisection.cut (Spectral.bisect g))
          (Bisection.cut (Spectral.bisect g)));
  ]

let spectral_properties =
  [
    Helpers.qtest ~count:100 "spectral bisections are balanced"
      (Helpers.gen_graph ~min_n:2 ~max_n:24 ()) (fun g ->
        Bisection.is_balanced (Spectral.bisect g));
    Helpers.qtest ~count:60 "spectral never beats the exact width"
      (Helpers.gen_even_graph ~max_n:14 ()) (fun g ->
        Bisection.cut (Spectral.bisect g) >= Gbisect.Exact.bisection_width g);
  ]

(* --- Kway ----------------------------------------------------------------------- *)

let kl_solver = Gbisect.Solvers.kway_solver `Kl

let kway_tests =
  [
    case "k=1 is the trivial partition" (fun () ->
        let g = Classic.grid ~rows:4 ~cols:4 in
        let r = Kway.partition ~k:1 ~solver:kl_solver (Helpers.rng ()) g in
        Kway.validate g r;
        check_int "no cut" 0 r.Kway.total_cut;
        check_bool "all in part 0" true (Array.for_all (( = ) 0) r.Kway.parts));
    case "k=2 equals a plain bisection's balance" (fun () ->
        let g = Classic.grid ~rows:6 ~cols:6 in
        let r = Kway.partition ~k:2 ~solver:kl_solver (Helpers.rng ()) g in
        Kway.validate g r;
        Alcotest.(check (array int)) "sizes" [| 18; 18 |] (Kway.part_sizes r));
    case "grid into 4 quadrants has near-optimal cut" (fun () ->
        let g = Classic.grid_of_side 16 in
        let r = Kway.partition ~k:4 ~solver:kl_solver (Helpers.rng ()) g in
        Kway.validate g r;
        check_bool (Printf.sprintf "cut %d near 32" r.Kway.total_cut) true
          (r.Kway.total_cut <= 40));
    case "level cuts sum to the total" (fun () ->
        let g = Classic.grid_of_side 8 in
        let r = Kway.partition ~k:8 ~solver:kl_solver (Helpers.rng ()) g in
        check_int "sum" r.Kway.total_cut (List.fold_left ( + ) 0 r.Kway.level_cuts);
        check_int "3 levels" 3 (List.length r.Kway.level_cuts));
    case "part ids cover the full range" (fun () ->
        let g = Classic.grid_of_side 8 in
        let r = Kway.partition ~k:8 ~solver:kl_solver (Helpers.rng ()) g in
        let seen = Array.make 8 false in
        Array.iter (fun p -> seen.(p) <- true) r.Kway.parts;
        check_bool "all parts used" true (Array.for_all Fun.id seen));
    case "non-power-of-two k rejected" (fun () ->
        let g = Classic.path 8 in
        Alcotest.check_raises "k=3" (Invalid_argument "Kway.partition: k must be a power of two")
          (fun () -> ignore (Kway.partition ~k:3 ~solver:kl_solver (Helpers.rng ()) g));
        Alcotest.check_raises "k=0" (Invalid_argument "Kway.partition: k must be a power of two")
          (fun () -> ignore (Kway.partition ~k:0 ~solver:kl_solver (Helpers.rng ()) g)));
    case "k exceeding n rejected" (fun () ->
        let g = Classic.path 4 in
        Alcotest.check_raises "k=8 n=4" (Invalid_argument "Kway.partition: k exceeds vertex count")
          (fun () -> ignore (Kway.partition ~k:8 ~solver:kl_solver (Helpers.rng ()) g)));
    case "all solver wrappers work" (fun () ->
        let g = Classic.grid_of_side 8 in
        List.iter
          (fun algorithm ->
            let solver = Gbisect.Solvers.kway_solver algorithm in
            Kway.validate g (Kway.partition ~k:4 ~solver (Helpers.rng ()) g))
          Gbisect.Solvers.all);
  ]

let kway_properties =
  [
    Helpers.qtest ~count:60 "kway is valid on random graphs (k=4)"
      (Helpers.gen_graph ~min_n:8 ~max_n:24 ()) (fun g ->
        let r = Kway.partition ~k:4 ~solver:kl_solver (Helpers.rng ()) g in
        Kway.validate g r;
        true);
    Helpers.qtest ~count:60 "total cut bounded by total edge weight"
      (Helpers.gen_graph ~min_n:8 ~max_n:24 ()) (fun g ->
        let r = Kway.partition ~k:8 ~solver:kl_solver (Helpers.rng ()) g in
        r.Kway.total_cut <= Graph.total_edge_weight g);
  ]

(* --- Cycles: exact O(n^2) solver for degree-2 graphs ------------------------------- *)

module Cycles = Gbisect.Cycles

let cycles_tests =
  [
    case "recognises cycle collections" (fun () ->
        check_bool "one cycle" true (Cycles.is_cycle_collection (Classic.cycle 7));
        check_bool "many cycles" true
          (Cycles.is_cycle_collection (Classic.disjoint_cycles ~count:3 ~len:5));
        check_bool "path is not" false (Cycles.is_cycle_collection (Classic.path 5));
        check_bool "grid is not" false
          (Cycles.is_cycle_collection (Classic.grid ~rows:3 ~cols:3));
        check_bool "empty graph is (vacuously)" true
          (Cycles.is_cycle_collection (Graph.empty 0)));
    case "cycle_lengths finds each component" (fun () ->
        let g = Classic.disjoint_cycles ~count:3 ~len:4 in
        Alcotest.(check (list int)) "three fours" [ 4; 4; 4 ] (Cycles.cycle_lengths g);
        Alcotest.(check (list int)) "single" [ 9 ] (Cycles.cycle_lengths (Classic.cycle 9)));
    case "single cycle must be split once: width 2" (fun () ->
        List.iter
          (fun n -> check_int (Printf.sprintf "C%d" n) 2 (Cycles.bisection_width (Classic.cycle n)))
          [ 3; 4; 7; 10; 101; 500 ]);
    case "two equal cycles separate: width 0" (fun () ->
        check_int "2 x C6" 0 (Cycles.bisection_width (Classic.disjoint_cycles ~count:2 ~len:6)));
    case "subset-sum miss forces one split: {C3, C5} width 2" (fun () ->
        let g =
          Graph.of_unweighted_edges ~n:8
            [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 6); (6, 7); (7, 3) ]
        in
        check_int "width 2" 2 (Cycles.bisection_width g));
    case "agrees with branch and bound on small collections" (fun () ->
        List.iter
          (fun (count, len) ->
            let g = Classic.disjoint_cycles ~count ~len in
            check_int
              (Printf.sprintf "%d x C%d" count len)
              (Gbisect.Exact.bisection_width g)
              (Cycles.bisection_width g))
          [ (1, 4); (1, 7); (2, 3); (2, 5); (3, 4); (2, 6); (4, 3) ]);
    case "best_bisection achieves the width and is balanced" (fun () ->
        List.iter
          (fun g ->
            let b = Cycles.best_bisection g in
            Helpers.check_bisection_consistent g b;
            check_bool "balanced" true (Bisection.is_balanced b);
            check_int "achieves width" (Cycles.bisection_width g) (Bisection.cut b))
          [
            Classic.cycle 12;
            Classic.cycle 13;
            Classic.disjoint_cycles ~count:2 ~len:6;
            Classic.disjoint_cycles ~count:3 ~len:5;
            Classic.disjoint_cycles ~count:5 ~len:3;
          ]);
    case "non-2-regular input rejected" (fun () ->
        Alcotest.check_raises "path" (Invalid_argument "Cycles: graph is not 2-regular")
          (fun () -> ignore (Cycles.bisection_width (Classic.path 4))));
    case "large instance runs fast (O(n^2) as the paper says)" (fun () ->
        let g = Classic.disjoint_cycles ~count:40 ~len:53 in
        let b = Cycles.best_bisection g in
        check_bool "small cut" true (Bisection.cut b <= 2);
        check_bool "balanced" true (Bisection.is_balanced b));
  ]

let cycles_properties =
  [
    Helpers.qtest_pair ~count:100 "matches branch and bound on random cycle collections"
      QCheck2.Gen.(
        let* k = int_range 1 3 in
        let* lens = list_repeat k (int_range 3 6) in
        return lens)
      (fun lens -> String.concat "," (List.map string_of_int lens))
      (fun lens ->
        let n = List.fold_left ( + ) 0 lens in
        let edges = ref [] in
        let base = ref 0 in
        List.iter
          (fun len ->
            for i = 0 to len - 1 do
              edges := (!base + i, !base + ((i + 1) mod len)) :: !edges
            done;
            base := !base + len)
          lens;
        let g = Graph.of_unweighted_edges ~n !edges in
        let exact = Gbisect.Exact.bisection_width ~limit:20 g in
        Cycles.bisection_width g = exact
        && Bisection.cut (Cycles.best_bisection g) = exact);
  ]

(* --- Tree_exact: polynomial exact bisection of forests ----------------------------- *)

module Tree_exact = Gbisect.Tree_exact

let tree_exact_tests =
  [
    case "known widths of tree families" (fun () ->
        check_int "path" 1 (Tree_exact.bisection_width (Classic.path 10));
        check_int "odd path" 1 (Tree_exact.bisection_width (Classic.path 11));
        check_int "star (K_{1,5})" 3 (Tree_exact.bisection_width (Classic.star 5));
        check_int "binary tree 15" 1 (Tree_exact.bisection_width (Classic.binary_tree ~depth:3));
        check_int "caterpillar" 1
          (Tree_exact.bisection_width (Classic.caterpillar ~spine:4 ~legs:3)));
    case "complete binary trees up to 8191 nodes have width 1" (fun () ->
        List.iter
          (fun depth ->
            check_int
              (Printf.sprintf "depth %d" depth)
              1
              (Tree_exact.bisection_width (Classic.binary_tree ~depth)))
          [ 4; 6; 8; 10; 12 ]);
    case "forests: even components split for free" (fun () ->
        let g = Gbisect.Product.disjoint_union (Classic.path 6) (Classic.path 6) in
        check_int "width 0" 0 (Tree_exact.bisection_width g));
    case "isolated vertices only" (fun () ->
        check_int "no edges" 0 (Tree_exact.bisection_width (Graph.empty 7)));
    case "best_bisection achieves the width and balance" (fun () ->
        List.iter
          (fun g ->
            let b = Tree_exact.best_bisection g in
            Helpers.check_bisection_consistent g b;
            check_bool "balanced" true (Bisection.is_balanced b);
            check_int "achieves" (Tree_exact.bisection_width g) (Bisection.cut b))
          [
            Classic.path 12;
            Classic.path 13;
            Classic.star 6;
            Classic.binary_tree ~depth:6;
            Classic.caterpillar ~spine:5 ~legs:4;
            Gbisect.Product.disjoint_union (Classic.path 5) (Classic.binary_tree ~depth:3);
            Graph.empty 4;
          ]);
    case "cycles rejected" (fun () ->
        Alcotest.check_raises "cycle" (Invalid_argument "Tree_exact: graph contains a cycle")
          (fun () -> ignore (Tree_exact.bisection_width (Classic.cycle 5))));
  ]

let tree_exact_properties =
  [
    Helpers.qtest_pair ~count:200 "tree DP matches branch and bound on random forests"
      QCheck2.Gen.(
        let* n = int_range 2 14 in
        let* seed = int_range 0 1_000_000 in
        let rng = Rng.create ~seed in
        let edges = ref [] in
        for v = 1 to n - 1 do
          if Rng.bernoulli rng 0.8 then edges := (Rng.int rng v, v) :: !edges
        done;
        return (n, !edges))
      (fun (n, edges) ->
        Printf.sprintf "n=%d [%s]" n
          (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges)))
      (fun (n, edges) ->
        let g = Graph.of_unweighted_edges ~n edges in
        let w = Tree_exact.bisection_width g in
        w = Gbisect.Exact.bisection_width g
        && Bisection.cut (Tree_exact.best_bisection g) = w);
  ]

(* --- METIS writer ------------------------------------------------------------------ *)

let metis_writer_tests =
  [
    case "unweighted round trip" (fun () ->
        let g = Classic.petersen () in
        let g' = Gio.of_metis_string (Gio.to_metis_string g) in
        check_bool "equal" true (Graph.equal g g'));
    case "edge-weighted round trip" (fun () ->
        let g = Graph.of_edges ~n:4 [ (0, 1, 3); (1, 2, 1); (2, 3, 9); (0, 3, 2) ] in
        let g' = Gio.of_metis_string (Gio.to_metis_string g) in
        check_bool "equal" true (Graph.equal g g'));
    case "isolated vertices survive" (fun () ->
        let g = Graph.of_unweighted_edges ~n:5 [ (0, 1) ] in
        let g' = Gio.of_metis_string (Gio.to_metis_string g) in
        check_int "n" 5 (Graph.n_vertices g');
        check_int "m" 1 (Graph.n_edges g'));
    case "vertex weights rejected" (fun () ->
        let g = Graph.of_edges ~vertex_weights:[| 2; 1 |] ~n:2 [ (0, 1, 1) ] in
        Alcotest.check_raises "vw"
          (Invalid_argument "Gio.to_metis_string: non-unit vertex weights unsupported")
          (fun () -> ignore (Gio.to_metis_string g)));
  ]

let metis_properties =
  [
    Helpers.qtest "metis round trip on random graphs" (Helpers.gen_graph ~max_n:30 ())
      (fun g -> Graph.equal g (Gio.of_metis_string (Gio.to_metis_string g)));
  ]

let () =
  Alcotest.run "extensions"
    [
      ("subgraph", subgraph_tests);
      ("subgraph properties", subgraph_properties);
      ("spectral", spectral_tests);
      ("spectral properties", spectral_properties);
      ("kway", kway_tests);
      ("kway properties", kway_properties);
      ("tree exact", tree_exact_tests);
      ("tree exact properties", tree_exact_properties);
      ("cycles", cycles_tests);
      ("cycles properties", cycles_properties);
      ("metis writer", metis_writer_tests);
      ("metis writer properties", metis_properties);
    ]
