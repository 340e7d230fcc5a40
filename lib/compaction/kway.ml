module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Subgraph = Gb_graph.Subgraph
module Bisection = Gb_partition.Bisection

type solver = Rng.t -> Csr.t -> int array

type result = { parts : int array; k : int; total_cut : int; level_cuts : int list }

let is_power_of_two k = k >= 1 && k land (k - 1) = 0

let partition ~k ~solver rng g =
  let n = Csr.n_vertices g in
  if not (is_power_of_two k) then invalid_arg "Kway.partition: k must be a power of two";
  if n > 0 && k > n then invalid_arg "Kway.partition: k exceeds vertex count";
  let levels =
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v / 2) in
    log2 0 k
  in
  let parts = Array.make n 0 in
  let groups = ref [ Array.init n (fun v -> v) ] in
  let level_cuts = ref [] in
  for _level = 1 to levels do
    let level_cut = ref 0 in
    let next_groups = ref [] in
    List.iter
      (fun group ->
        let sub = Subgraph.induced g group in
        let side = solver rng sub.Subgraph.graph in
        level_cut := !level_cut + Bisection.compute_cut sub.Subgraph.graph side;
        let side0 = ref [] and side1 = ref [] in
        List.iter
          (fun (parent, s) ->
            parts.(parent) <- (parts.(parent) lsl 1) lor s;
            if s = 0 then side0 := parent :: !side0 else side1 := parent :: !side1)
          (Subgraph.lift_sides sub side);
        next_groups :=
          Array.of_list (List.rev !side1) :: Array.of_list (List.rev !side0)
          :: !next_groups)
      !groups;
    groups := List.rev !next_groups;
    level_cuts := !level_cut :: !level_cuts
  done;
  let total_cut =
    Csr.fold_edges g ~init:0 ~f:(fun acc u v w ->
        if parts.(u) <> parts.(v) then acc + w else acc)
  in
  { parts; k; total_cut; level_cuts = List.rev !level_cuts }

let part_sizes r =
  let sizes = Array.make r.k 0 in
  Array.iter (fun p -> sizes.(p) <- sizes.(p) + 1) r.parts;
  sizes

let validate g r =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = Csr.n_vertices g in
  if Array.length r.parts <> n then fail "parts length";
  Array.iter (fun p -> if p < 0 || p >= r.k then fail "part id out of range") r.parts;
  let total =
    Csr.fold_edges g ~init:0 ~f:(fun acc u v w ->
        if r.parts.(u) <> r.parts.(v) then acc + w else acc)
  in
  if total <> r.total_cut then fail "total_cut mismatch: %d <> %d" total r.total_cut;
  if List.fold_left ( + ) 0 r.level_cuts <> r.total_cut then
    fail "level cuts do not sum to the total";
  if n > 0 && r.k > 1 then begin
    let sizes = part_sizes r in
    let mx = Array.fold_left max 0 sizes and mn = Array.fold_left min max_int sizes in
    let levels = List.length r.level_cuts in
    if mx - mn > levels then fail "part sizes unbalanced: max %d min %d" mx mn
  end
