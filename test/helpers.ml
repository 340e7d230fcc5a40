(* Shared test utilities: deterministic RNG factory, QCheck generators
   for graphs and bisections, and common assertions. *)

module Rng = Gbisect.Rng
module Graph = Gbisect.Graph
module Bisection = Gbisect.Bisection

let rng ?(seed = 424242) () = Rng.create ~seed

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_graph_ok g =
  try Graph.check g
  with Failure msg -> Alcotest.failf "graph invariant violated: %s" msg

(* The first [per_family] fuzz corpus cases of every generator family,
   in family order. Replay seeds below 1000 cover every family several
   times over (test_check proves 600 seeds reach each one). *)
let family_cases ?(per_family = 1) () =
  let module G = Gbisect.Fuzz_generators in
  let found = Hashtbl.create 32 in
  for seed = 0 to 999 do
    let c = G.generate ~seed in
    let cs = Option.value ~default:[] (Hashtbl.find_opt found c.G.family) in
    if List.length cs < per_family then Hashtbl.replace found c.G.family (c :: cs)
  done;
  List.concat_map
    (fun f ->
      match Hashtbl.find_opt found f with
      | Some cs when List.length cs = per_family -> List.rev cs
      | _ -> Alcotest.failf "family %s has fewer than %d cases in 1000 seeds" f per_family)
    G.families

(* --- QCheck generators ---------------------------------------------- *)

(* A random simple unweighted graph described by (n, edge list); sizes
   kept small so exact oracles stay cheap. *)
let gen_graph ?(min_n = 2) ?(max_n = 24) ?(p = 0.3) () =
  let open QCheck2.Gen in
  let* n = int_range min_n max_n in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli r p then edges := (u, v) :: !edges
    done
  done;
  return (Graph.of_unweighted_edges ~n !edges)

(* A graph with an even number of vertices, for bisection tests. *)
let gen_even_graph ?(max_n = 24) ?(p = 0.3) () =
  let open QCheck2.Gen in
  let* g = gen_graph ~min_n:2 ~max_n ~p () in
  let n = Graph.n_vertices g in
  if n land 1 = 0 then return g
  else return (Graph.of_unweighted_edges ~n:(n + 1) (List.map (fun (u, v, _) -> (u, v)) (Graph.edges g)))

(* A weighted graph (weights 1..5 on vertices and edges), as produced
   by contraction. *)
let gen_weighted_graph ?(max_n = 20) () =
  let open QCheck2.Gen in
  let* n = int_range 2 max_n in
  let* seed = int_range 0 1_000_000 in
  let r = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.bernoulli r 0.3 then edges := (u, v, 1 + Rng.int r 5) :: !edges
    done
  done;
  let vw = Array.init n (fun _ -> 1 + Rng.int r 3) in
  return (Graph.of_edges ~vertex_weights:vw ~n !edges)

(* A balanced random side assignment for a graph. *)
let balanced_sides r g =
  Gbisect.Initial.random r g

let graph_print g =
  Format.asprintf "%a [%s]" Graph.pp g
    (String.concat ";"
       (List.map (fun (u, v, w) -> Printf.sprintf "%d-%d(%d)" u v w) (Graph.edges g)))

(* Wrap a QCheck2 property as an alcotest case. *)
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:graph_print gen prop)

let qtest_pair ?(count = 200) name gen print prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name ~print gen prop)

let case name f = Alcotest.test_case name `Quick f

(* Byte-identity pins: an answer is folded into a hex MD5 (floats by
   their bits), so a pinned hash moves on any change to any field. *)
module Pin = struct
  let create () = Buffer.create 1024

  let int b i =
    Buffer.add_string b (string_of_int i);
    Buffer.add_char b ','

  let ints b a = Array.iter (int b) a
  let bool b x = int b (Bool.to_int x)

  let float b x =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float x));
    Buffer.add_char b ','

  let sa_stats b (s : Gbisect.Sa.stats) =
    let open Gbisect.Sa in
    List.iter (int b) [ s.temperatures; s.attempted; s.accepted; s.uphill_accepted ];
    List.iter (float b) [ s.initial_temperature; s.final_temperature ];
    bool b s.frozen;
    List.iter
      (fun p ->
        float b p.temperature;
        List.iter (int b)
          [ p.p_attempted; p.p_accepted; p.p_accepted_uphill; p.p_accepted_downhill; p.p_rejected ];
        float b p.acceptance;
        float b p.p_best_cost;
        bool b p.improved_best)
      s.plateaus

  let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

  (* [check label (cut, hash) (cut', hash')]: the readable cut first,
     so a moved answer names the field a reader can check by hand. *)
  let check label (cut, hash) (cut', hash') =
    check_int (label ^ " cut") cut cut';
    Alcotest.(check string) (label ^ " hash") hash hash'
end

(* Substring search (no external deps). *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* Exhaustively verify a bisection's cached values against recomputation. *)
let check_bisection_consistent g b =
  let side = Bisection.sides b in
  check_int "cut cache" (Bisection.compute_cut g side) (Bisection.cut b);
  let c0, c1 = Bisection.side_counts side in
  Alcotest.(check (pair int int)) "counts cache" (c0, c1) (Bisection.counts b)
