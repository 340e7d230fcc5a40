module Rng = Gb_prng.Rng
module Csr = Gb_graph.Csr
module Bisection = Gb_partition.Bisection
module Kl = Gb_kl.Kl
module Fm = Gb_kl.Fm
module Sa_bisect = Gb_anneal.Sa_bisect
module Compaction = Gb_compaction.Compaction
module Xsa = Gb_race.Xsa
module Pool = Gb_par.Pool

type algorithm = [ `Kl | `Sa | `Ckl | `Csa | `Fm | `Multilevel | `Mlfm | `Xsa ]

let all : algorithm list = [ `Kl; `Sa; `Ckl; `Csa; `Fm; `Multilevel; `Mlfm; `Xsa ]

let id : algorithm -> string = function
  | `Kl -> "kl"
  | `Sa -> "sa"
  | `Ckl -> "ckl"
  | `Csa -> "csa"
  | `Fm -> "fm"
  | `Multilevel -> "mlkl"
  | `Mlfm -> "mlfm"
  | `Xsa -> "xsa"

let name a = String.uppercase_ascii (id a)

let of_id s =
  match String.lowercase_ascii s with
  | "multilevel" -> Some `Multilevel
  | s -> List.find_opt (fun a -> String.equal (id a) s) all

let unknown s =
  Printf.sprintf "unknown algorithm %S (%s)" s (String.concat " " (List.map id all))

type ml_config = {
  min_vertices : int;
  max_levels : int;
  coarse_starts : int;
  refine_passes : int;
}

let default_ml_config =
  { min_vertices = 64; max_levels = 20; coarse_starts = 1; refine_passes = 50 }

let run ?(ml = default_ml_config) (algorithm : algorithm) rng g =
  let flat (b, _) = (b, 1) in
  let multilevel refiner =
    let b, stats =
      Compaction.recursive ~min_vertices:ml.min_vertices ~max_levels:ml.max_levels
        ~coarse_starts:ml.coarse_starts ~refiner rng g
    in
    (b, stats.Compaction.levels)
  in
  match algorithm with
  | `Kl -> flat (Kl.run rng g)
  | `Sa -> flat (Sa_bisect.run rng g)
  | `Ckl -> flat (Compaction.ckl rng g)
  | `Csa -> flat (Compaction.csa rng g)
  | `Fm -> flat (Fm.run rng g)
  | `Multilevel ->
      multilevel
        (Compaction.kl_refiner
           ~config:{ Kl.default_config with max_passes = ml.refine_passes }
           ())
  | `Mlfm ->
      multilevel
        (Compaction.fm_refiner
           ~config:{ Fm.default_config with max_passes = ml.refine_passes }
           ())
  | `Xsa -> flat (Xsa.run rng g)

let kway_solver algorithm : Gb_compaction.Kway.solver =
 fun rng g -> Bisection.sides (fst (run algorithm rng g))

let best_of ?ml ~starts algorithm rng g =
  let base = Rng.derive_seed rng in
  Pool.best_by (Pool.current ())
    ~compare:(fun a b -> Int.compare (Bisection.cut a) (Bisection.cut b))
    (fun i -> fst (run ?ml algorithm (Rng.substream ~base i) g))
    starts
