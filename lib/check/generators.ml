module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Classic = Gb_graph.Classic

type case = { family : string; seed : int; graph : Csr.t }

(* Shared with the bench probes (see the .mli): snap [b] to parity
   feasibility, then generate. *)
let gbreg_instance rng ~two_n ~b ~d =
  let params = Gb_models.Bregular.{ two_n; b; d } in
  let params =
    { params with Gb_models.Bregular.b = Gb_models.Bregular.nearest_feasible_b params }
  in
  Gb_models.Bregular.generate rng params

let g2set_instance rng ~two_n ~avg_degree ~bis =
  Gb_models.Planted.generate rng
    (Gb_models.Planted.params_for_average_degree ~two_n ~avg_degree ~bis)

(* A random simple graph given as an explicit edge list with deliberate
   duplicates: the CSR builder must merge parallel edges by summing
   their weights, and downstream code (matching, contraction, solvers)
   must behave on the merged result. *)
let multi_edge rng =
  let n = 2 + Rng.int rng 11 in
  let edges = ref [] in
  let m = Rng.int rng (3 * n) in
  for _ = 1 to m do
    let u = Rng.int rng n in
    let v = Rng.int rng n in
    if u <> v then begin
      let u, v = if u < v then (u, v) else (v, u) in
      let w = 1 + Rng.int rng 4 in
      edges := (u, v, w) :: !edges;
      (* duplicate some edges outright *)
      if Rng.bernoulli rng 0.4 then edges := (u, v, 1 + Rng.int rng 4) :: !edges
    end
  done;
  Csr.of_edges ~n !edges

(* A weighted graph in the shape contraction produces: vertex weights
   1..3, edge weights 1..5. *)
let weighted rng =
  let n = 2 + Rng.int rng 15 in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli rng 0.3 then edges := (u, v, 1 + Rng.int rng 5) :: !edges
    done
  done;
  let vw = Array.init n (fun _ -> 1 + Rng.int rng 3) in
  Csr.of_edges ~vertex_weights:vw ~n !edges

let gnp rng =
  let n = 2 + Rng.int rng 15 in
  Gb_models.Gnp.generate rng ~n ~p:(Rng.float rng 0.8)

let planted rng =
  let half = 2 + Rng.int rng 6 in
  let two_n = 2 * half in
  let bis = Rng.int rng (1 + (half * half / 2)) in
  Gb_models.Planted.generate rng
    Gb_models.Planted.{ two_n; p_a = Rng.float rng 0.6; p_b = Rng.float rng 0.6; bis }

(* Some draws (a [b] too close to [n*d] on a tiny graph) cannot be
   realised, and Bregular fails. Only then is the draw repeated, from
   the same stream: a replay seed always builds a case, and every seed
   that built one before builds the same case. *)
let rec gbreg rng =
  let half = 3 + Rng.int rng 5 in
  let two_n = 2 * half in
  let d = 1 + Rng.int rng (min 3 (half - 1)) in
  let b = Rng.int rng (1 + (half * d / 2)) in
  match gbreg_instance rng ~two_n ~b ~d with
  | g -> g
  | exception Failure _ -> gbreg rng

let geometric rng =
  let n = Rng.int rng 17 in
  Gb_models.Geometric.generate rng ~n ~radius:(Rng.float rng 0.6)

let families_impl =
  [
    ("empty", fun _ -> Csr.empty 0);
    ("singleton", fun _ -> Csr.empty 1);
    ("isolated", fun rng -> Csr.empty (2 + Rng.int rng 14));
    ("path", fun rng -> Classic.path (2 + Rng.int rng 14));
    ("cycle", fun rng -> Classic.cycle (3 + Rng.int rng 13));
    ("star", fun rng -> Classic.star (1 + Rng.int rng 12));
    ("clique", fun rng -> Classic.complete (2 + Rng.int rng 9));
    ("grid", fun rng -> Classic.grid ~rows:(1 + Rng.int rng 4) ~cols:(1 + Rng.int rng 4));
    ("ladder", fun rng -> Classic.ladder (1 + Rng.int rng 8));
    ("tree", fun rng -> Classic.binary_tree ~depth:(Rng.int rng 4));
    ( "caterpillar",
      fun rng -> Classic.caterpillar ~spine:(1 + Rng.int rng 5) ~legs:(1 + Rng.int rng 2) );
    ( "disjoint-cycles",
      fun rng ->
        Classic.disjoint_cycles ~count:(1 + Rng.int rng 3) ~len:(3 + Rng.int rng 4) );
    ("multi-edge", multi_edge);
    ("weighted", weighted);
    ("gnp", gnp);
    ("planted", planted);
    ("gbreg", gbreg);
    ("geometric", geometric);
  ]

let families = List.map fst families_impl

let generate ~seed =
  let rng = Rng.create ~seed in
  let family, build = List.nth families_impl (Rng.int rng (List.length families_impl)) in
  { family; seed; graph = build rng }

let describe c =
  Printf.sprintf "%s (seed %d): %d vertices, %d edges" c.family c.seed
    (Csr.n_vertices c.graph) (Csr.n_edges c.graph)

let edges_repr g =
  let b = Buffer.create 64 in
  Buffer.add_string b (Printf.sprintf "n=%d:" (Csr.n_vertices g));
  Csr.iter_edges g (fun u v w -> Buffer.add_string b (Printf.sprintf " %d-%d(%d)" u v w));
  if Csr.n_edges g = 0 then Buffer.add_string b " (no edges)";
  Buffer.contents b
