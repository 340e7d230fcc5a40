(* Seeded workload inputs. Everything here is a pure function of the
   workload seed (and, for the serve plan, of the run length), so the
   same seed gives byte-identical inputs; test_bench checks this. *)

module G = Gbisect

(* One seed per named input stream, so adding a stream never shifts
   another's draws. *)
let stream ~seed tag = G.Rng.create ~seed:(G.Rng.seed_of_string (Printf.sprintf "%d/%s" seed tag))

(* Batch workloads solve several instances per run, one per [per]
   seconds of run length: cost and cut vary from instance to instance,
   and the host's speed from second to second, so a run summarises a
   fixed number of short solves. *)
let instances ~seconds ~per = max 1 (int_of_float (seconds /. per))

(* ------------------------------------------------------------------ *)
(* vcycle-gnp                                                          *)

let vcycle_vertices = 30_000
let vcycle_degree = 4.0
let vcycle_seconds_per_instance = 0.8

(* Instance [k] of the run seeded [seed]. *)
let vcycle_graph ?(n = vcycle_vertices) ~seed k =
  G.Gnp.with_average_degree
    (stream ~seed (Printf.sprintf "vcycle.graph/%d" k))
    ~n ~avg_degree:vcycle_degree

(* The seed handed to Gbisect.solve for instance [k]. *)
let vcycle_solve_seed ~seed k = G.Rng.seed_of_string (Printf.sprintf "%d/vcycle.solve/%d" seed k)

(* ------------------------------------------------------------------ *)
(* paper-mix                                                           *)

let paper_vertices = 5000
let paper_seconds_per_corpus = 6.

let bregular rng ~two_n ~d ~b =
  let p = { G.Bregular.two_n; b; d } in
  G.Bregular.generate rng { p with b = G.Bregular.nearest_feasible_b p }

(* The paper's models at about 5000 vertices: three seeded random
   families and three special graphs (fixed, but solved from seeded
   starts). *)
let paper_corpus ?(n = paper_vertices) ~seed k =
  let rng = stream ~seed (Printf.sprintf "paper.corpus/%d" k) in
  let side = int_of_float (Float.round (sqrt (float_of_int n))) in
  let depth = int_of_float (Float.log2 (float_of_int n)) - 1 in
  [
    ("gbreg-d3", bregular rng ~two_n:n ~d:3 ~b:16);
    ( "g2set-d3",
      G.Planted.generate rng
        (G.Planted.params_for_average_degree ~two_n:n ~avg_degree:3.0 ~bis:16) );
    ("gnp-d3", G.Gnp.with_average_degree rng ~n ~avg_degree:3.0);
    ("ladder", G.Classic.ladder (n / 2));
    ("binary-tree", G.Classic.binary_tree ~depth);
    ("grid", G.Classic.grid ~rows:side ~cols:side);
  ]

let paper_algorithms : (string * G.algorithm) list =
  [ ("kl", `Kl); ("sa", `Sa); ("ckl", `Ckl); ("csa", `Csa) ]

(* The seed of cell (algorithm, instance) of corpus [k]; both starts
   derive from it inside Gbisect.solve. *)
let cell_seed ~seed k alg label =
  G.Rng.seed_of_string (Printf.sprintf "%d/paper.cell/%d/%s/%s" seed k alg label)

(* ------------------------------------------------------------------ *)
(* serve-open                                                          *)

let serve_rate = 5.0 (* offered solve requests per second *)
let ping_rate = 50.0
let big_every = 25 (* every 25th request is a large mlfm solve *)
let big_vertices = 20_000

type query = {
  index : int;  (** Position in the plan. *)
  graph : int;  (** Index into the plan's graph pool. *)
  algorithm : G.Serve_protocol.algorithm;
  seed : int;
  repeat_of : int option;  (** Plan index of the query this one repeats. *)
  line : string;  (** The request line, without its newline. *)
}

type plan = {
  graphs : (string * string) array;  (** Pool: (label, edge-list text). *)
  queries : query array;
}

(* Algorithms cycle in a fixed pattern so every seed offers the same mix. *)
let small_algorithms : G.Serve_protocol.algorithm array =
  [| `Ckl; `Mlfm; `Kl; `Ckl; `Mlfm; `Kl; `Ckl; `Mlfm; `Kl; `Ckl; `Mlfm; `Kl; `Xsa |]

let small_pool = 12 (* graphs in the small pool, 3 per family *)
let big_pool = 4

let small_graph rng k =
  let n = paper_vertices in
  match k mod 4 with
  | 0 -> ("gbreg-d3", bregular rng ~two_n:n ~d:3 ~b:16)
  | 1 ->
      ( "g2set-d3",
        G.Planted.generate rng
          (G.Planted.params_for_average_degree ~two_n:n ~avg_degree:3.0 ~bis:16) )
  | 2 -> ("gnp-d3", G.Gnp.with_average_degree rng ~n ~avg_degree:3.0)
  | _ -> ("gnp-d4", G.Gnp.with_average_degree rng ~n ~avg_degree:4.0)

let request_line ~index ~data ~algorithm ~seed =
  G.Serve_protocol.request_to_line
    (G.Serve_protocol.Solve
       {
         id = Some (Printf.sprintf "s%d" index);
         format = G.Serve_protocol.Edge_list;
         data;
         algorithm;
         starts = 1;
         seed;
       })

(* [count] requests. Slot i is a large mlfm solve when i mod 25 = 24;
   otherwise, from i = 10 on, slots with i mod 10 in {2, 5, 8} repeat
   an earlier small query at least 10 places back (a cache hit); every
   other slot is a fresh small query on the next pool graph with the
   next algorithm of the cycle and a fresh seed. *)
let serve_plan ~seed ~count =
  let rng = stream ~seed "serve.plan" in
  let small = Array.init small_pool (fun k -> small_graph rng k) in
  let big =
    Array.init big_pool (fun k ->
        (Printf.sprintf "gnp-d4-%dk#%d" (big_vertices / 1000) k,
         G.Gnp.with_average_degree rng ~n:big_vertices ~avg_degree:4.0))
  in
  let graphs =
    Array.map (fun (label, g) -> (label, G.Graph_io.to_edge_list_string g))
      (Array.append small big)
  in
  let fresh_small = ref [] (* plan indices of fresh small queries, newest first *) in
  let n_fresh = ref 0 and n_big = ref 0 in
  let queries = Array.make count None in
  for i = 0 to count - 1 do
    let q =
      if i mod big_every = big_every - 1 then begin
        let graph = small_pool + (!n_big mod big_pool) in
        incr n_big;
        let seed = G.Rng.int rng 1_000_000_000 in
        { index = i; graph; algorithm = `Mlfm; seed; repeat_of = None; line = "" }
      end
      else
        let eligible = List.filter (fun j -> j <= i - 10) !fresh_small in
        if i >= 10 && List.mem (i mod 10) [ 2; 5; 8 ] && eligible <> [] then begin
          let j = G.Rng.pick_list rng eligible in
          match queries.(j) with
          | Some orig -> { orig with index = i; repeat_of = Some j; line = "" }
          | None -> assert false
        end
        else begin
          let graph = !n_fresh mod small_pool in
          let algorithm = small_algorithms.(!n_fresh mod Array.length small_algorithms) in
          incr n_fresh;
          fresh_small := i :: !fresh_small;
          let seed = G.Rng.int rng 1_000_000_000 in
          { index = i; graph; algorithm; seed; repeat_of = None; line = "" }
        end
    in
    let line =
      request_line ~index:i ~data:(snd graphs.(q.graph)) ~algorithm:q.algorithm ~seed:q.seed
    in
    queries.(i) <- Some { q with line }
  done;
  { graphs; queries = Array.map Option.get queries }

(* Warm-up requests: one per algorithm of the mix on pool graphs, with
   seeds no plan query uses (the plan draws from [0, 10^9)). *)
let warmup_lines plan =
  List.mapi
    (fun k algorithm ->
      request_line ~index:(-1 - k) ~data:(snd plan.graphs.(k)) ~algorithm
        ~seed:(1_000_000_000 + k))
    [ `Ckl; `Mlfm; `Kl; `Xsa ]
