(* Tests for lib/race — replica-exchange SA (xsa) and the deterministic
   algorithm portfolio (race) — plus differential tests for the chunked
   parallel CSR kernels they and the V-cycle run on. The through-line is
   the determinism contract: byte-identical results at any --jobs value
   and any chunk count (see PARALLELISM.md). *)

module Pool = Gbisect.Pool
module Rng = Gbisect.Rng
module Graph = Gbisect.Graph
module Bisection = Gbisect.Bisection
module Matching = Gbisect.Matching
module Contraction = Gbisect.Contraction
module Xsa = Gbisect.Xsa
module Race = Gbisect.Race
module Generators = Gbisect.Fuzz_generators

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let with_jobs n f =
  let saved = Pool.jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

(* A fingerprint of everything seed-determined in an xsa run: the
   returned bisection and every schedule-independent stats field
   (seconds-style data does not exist in stats by design). *)
let xsa_fingerprint ?config ?record rng g =
  let b, s = Xsa.run ?config ?record rng g in
  ( Bisection.cut b,
    Bisection.sides b,
    s.Xsa.attempted,
    s.Xsa.accepted,
    s.Xsa.swaps_attempted,
    s.Xsa.swaps_accepted,
    s.Xsa.best_chain,
    s.Xsa.best_was_snapshot,
    Array.to_list (Array.map Array.to_list s.Xsa.trajectories) )

let small_config =
  { Xsa.default_config with Xsa.chains = 3; rounds = 5; sweeps_per_round = 1 }

(* --- xsa: replica-exchange SA ---------------------------------------------- *)

(* Xsa.run ~record:true on a fresh stream: the cut and a hash of the
   sides, the counters, the swap counts and every chain's trajectory. *)
let xsa_pin ?(config = small_config) seed g =
  let cut, sides, attempted, accepted, swaps_attempted, swaps_accepted, best_chain, snap, traj =
    xsa_fingerprint ~config ~record:true (Rng.create ~seed) g
  in
  let b = Helpers.Pin.create () in
  Helpers.Pin.ints b sides;
  List.iter (Helpers.Pin.int b)
    [ attempted; accepted; swaps_attempted; swaps_accepted; best_chain; List.length traj ];
  Helpers.Pin.bool b snap;
  List.iter
    (fun t ->
      Helpers.Pin.int b (List.length t);
      List.iter (Helpers.Pin.int b) t)
    traj;
  (cut, Helpers.Pin.hex b)

let xsa_pin_tests =
  [
    case "answers are pinned byte for byte" (fun () ->
        let r = Rng.create ~seed:17 in
        Helpers.Pin.check "gnp 120" (38, "982c0e9f582eac4870dd722171f05117")
          (xsa_pin 3 (Gbisect.Gnp.with_average_degree r ~n:120 ~avg_degree:3.0));
        Helpers.Pin.check "ladder 40 default config" (14, "aa9f73fc010e6840445c06e3115f305e")
          (xsa_pin ~config:Xsa.default_config 5 (Gbisect.Classic.ladder 40));
        Helpers.Pin.check "gbreg 200" (46, "2b43566dd669990ce27667f85ecd145e")
          (xsa_pin 9 (Gbisect.Bregular.generate r Gbisect.Bregular.{ two_n = 200; b = 4; d = 3 })));
  ]

let xsa_tests =
  [
    case "temperature ladder is geometric, hottest first" (fun () ->
        let cfg =
          { Xsa.default_config with Xsa.chains = 5; max_temperature = 8.0;
            min_temperature = 0.5 }
        in
        let ladder = Xsa.temperature_ladder cfg in
        check_int "length" 5 (Array.length ladder);
        check_bool "top" true (Float.abs (ladder.(0) -. 8.0) < 1e-9);
        check_bool "bottom" true (Float.abs (ladder.(4) -. 0.5) < 1e-9);
        for k = 0 to 3 do
          check_bool "strictly cooling" true (ladder.(k) > ladder.(k + 1));
          (* geometric: constant ratio between adjacent rungs *)
          check_bool "geometric" true
            (Float.abs ((ladder.(k + 1) /. ladder.(k)) -. (ladder.(1) /. ladder.(0)))
             < 1e-9)
        done);
    case "invalid configs are rejected" (fun () ->
        let g = Gbisect.Classic.ladder 8 in
        List.iter
          (fun cfg ->
            match Xsa.run ~config:cfg (Helpers.rng ()) g with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail "accepted an invalid config")
          [
            { Xsa.default_config with Xsa.chains = 0 };
            { Xsa.default_config with Xsa.rounds = 0 };
            { Xsa.default_config with Xsa.sweeps_per_round = 0 };
            { Xsa.default_config with Xsa.min_temperature = 0. };
            { Xsa.default_config with Xsa.max_temperature = 0.1 };
            { Xsa.default_config with Xsa.imbalance_factor = 0. };
          ]);
    case "chains and swap schedule are pure functions of the seed" (fun () ->
        (* equal caller streams must reproduce every chain's accepted-move
           trajectory and every swap decision, not just the winner *)
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let run () =
          xsa_fingerprint ~config:small_config ~record:true
            (Helpers.rng ~seed:5 ()) g
        in
        check_bool "identical runs" true (run () = run ()));
    case "different seeds explore differently" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let traj seed =
          let (_, _, _, _, _, _, _, _, t) =
            xsa_fingerprint ~config:small_config ~record:true
              (Helpers.rng ~seed ()) g
          in
          t
        in
        check_bool "trajectories differ" true (traj 5 <> traj 6));
    case "xsa is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:60 ~p:0.1 in
        let at jobs =
          with_jobs jobs (fun () ->
              xsa_fingerprint ~config:small_config ~record:true
                (Helpers.rng ~seed:13 ()) g)
        in
        check_bool "same run" true (at 1 = at 4));
    case "xsa advances the caller stream by a fixed amount" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:30 ~p:0.2 in
        let tail jobs =
          with_jobs jobs (fun () ->
              let r = Helpers.rng ~seed:21 () in
              ignore (Xsa.run ~config:small_config r g);
              Array.init 4 (fun _ -> Rng.int r 1_000_000))
        in
        check_bool "jobs-independent tail" true (tail 1 = tail 4));
    case "result is a balanced bisection with a true cut" (fun () ->
        List.iter
          (fun seed ->
            let c = Generators.generate ~seed in
            let g = c.Generators.graph in
            if Graph.n_vertices g > 0 then begin
              let b, s = Xsa.run ~config:small_config (Helpers.rng ~seed ()) g in
              Helpers.check_bisection_consistent g b;
              check_bool "balanced" true (Bisection.is_balanced b);
              check_bool "best chain in range" true
                (s.Xsa.best_chain >= 0 && s.Xsa.best_chain < small_config.Xsa.chains)
            end)
          [ 0; 3; 11; 42; 99; 123 ]);
    case "the empty graph solves trivially" (fun () ->
        let b, _ = Xsa.run (Helpers.rng ()) (Graph.empty 0) in
        check_int "cut" 0 (Bisection.cut b));
    case "solve -a xsa is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:50 ~p:0.12 in
        let at jobs =
          with_jobs jobs (fun () ->
              let r = Gbisect.solve ~algorithm:`Xsa ~starts:3 (Helpers.rng ~seed:7 ()) g in
              (Bisection.cut r.Gbisect.bisection, Bisection.sides r.Gbisect.bisection))
        in
        check_bool "same bisection" true (at 1 = at 4));
  ]

(* --- race: deterministic portfolio ----------------------------------------- *)

(* A fixed path 0-1-2-3 where we can name bisections by cut: sides
   [0;0;1;1] cuts 1 edge, [0;1;1;0] cuts 2, [0;1;0;1] cuts 3. *)
let path4 = Graph.of_unweighted_edges ~n:4 [ (0, 1); (1, 2); (2, 3) ]

let const_backend name sides =
  { Race.name; solve = (fun _rng g -> Bisection.of_sides g sides) }

let b_cut1 = const_backend "one" [| 0; 0; 1; 1 |]
let b_cut2 = const_backend "two" [| 0; 1; 1; 0 |]
let b_cut3 = const_backend "three" [| 0; 1; 0; 1 |]

let race_tests =
  [
    case "winner is the best cut" (fun () ->
        let o = Race.run ~backends:[ b_cut3; b_cut1; b_cut2 ] (Helpers.rng ()) path4 in
        check_int "winner index" 1 o.Race.winner_index;
        Alcotest.(check string) "winner name" "one" o.Race.winner.Race.backend;
        check_int "winner cut" 1 o.Race.winner.Race.cut;
        check_int "entries" 3 (Array.length o.Race.entries);
        check_int "entry order preserved" 3 o.Race.entries.(0).Race.cut);
    case "ties break to the earliest backend, never wall-clock" (fun () ->
        (* cuts 3,2,2: both cut-2 heats tie; the portfolio order decides *)
        let dup = { b_cut2 with Race.name = "two'" } in
        let o = Race.run ~backends:[ b_cut3; b_cut2; dup ] (Helpers.rng ()) path4 in
        check_int "winner index" 1 o.Race.winner_index;
        Alcotest.(check string) "winner name" "two" o.Race.winner.Race.backend);
    case "an empty portfolio is rejected" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Race.run: empty portfolio")
          (fun () -> ignore (Race.run ~backends:[] (Helpers.rng ()) path4)));
    case "metamorphic: a no-better backend never changes the winner" (fun () ->
        (* append every backend that does not strictly beat the current
           winner; the winner entry must be untouched *)
        let base = [ b_cut2; b_cut3 ] in
        let reference = Race.run ~backends:base (Helpers.rng ~seed:3 ()) path4 in
        List.iter
          (fun extra ->
            let o =
              Race.run ~backends:(base @ [ extra ]) (Helpers.rng ~seed:3 ()) path4
            in
            check_int "winner index" reference.Race.winner_index o.Race.winner_index;
            check_int "winner cut" reference.Race.winner.Race.cut o.Race.winner.Race.cut;
            check_bool "winner sides" true
              (Bisection.sides reference.Race.winner.Race.bisection
              = Bisection.sides o.Race.winner.Race.bisection))
          [ b_cut2; b_cut3; { b_cut2 with Race.name = "echo" } ];
        (* and a strictly better one must win *)
        let o = Race.run ~backends:(base @ [ b_cut1 ]) (Helpers.rng ~seed:3 ()) path4 in
        check_int "better backend wins" 2 o.Race.winner_index);
    case "each heat runs on its own substream of one derived base" (fun () ->
        (* the caller's stream position after a race depends on neither
           the portfolio size nor the job count *)
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:40 ~p:0.15 in
        let tail ~jobs ~portfolio =
          with_jobs jobs (fun () ->
              let r = Helpers.rng ~seed:8 () in
              ignore (Gbisect.race ~portfolio r g);
              Array.init 4 (fun _ -> Rng.int r 1_000_000))
        in
        let reference = tail ~jobs:1 ~portfolio:[ `Kl ] in
        check_bool "portfolio-independent" true
          (tail ~jobs:1 ~portfolio:[ `Kl; `Ckl; `Mlfm ] = reference);
        check_bool "jobs-independent" true
          (tail ~jobs:4 ~portfolio:[ `Kl; `Ckl; `Mlfm ] = reference));
    case "gbisect race is bit-identical at jobs 1 vs 4" (fun () ->
        let g = Gbisect.Gnp.generate (Helpers.rng ()) ~n:60 ~p:0.1 in
        let at jobs =
          with_jobs jobs (fun () ->
              let o = Gbisect.race (Helpers.rng ~seed:17 ()) g in
              ( o.Race.winner_index,
                Array.to_list
                  (Array.map
                     (fun e ->
                       (e.Race.backend, e.Race.cut, Bisection.sides e.Race.bisection))
                     o.Race.entries) ))
        in
        check_bool "same outcome" true (at 1 = at 4));
    case "default portfolio names match the wire ids" (fun () ->
        let o = Gbisect.race (Helpers.rng ()) path4 in
        let names =
          Array.to_list (Array.map (fun e -> e.Race.backend) o.Race.entries)
        in
        Alcotest.(check (list string)) "ids"
          (List.map Gbisect.Serve_protocol.algorithm_id Gbisect.default_portfolio)
          names);
  ]

(* --- differential tests for the chunked CSR kernels ------------------------ *)

(* One representative case per generator family. *)
let family_cases = Helpers.family_cases ()

let kernel_tests =
  [
    case "chunked gain init equals the sequential reference, all families"
      (fun () ->
        List.iter
          (fun c ->
            let g = c.Generators.graph in
            let side = Helpers.balanced_sides (Helpers.rng ~seed:c.Generators.seed ()) g in
            let reference = Bisection.all_gains_sequential g side in
            List.iter
              (fun chunks ->
                check_bool
                  (Printf.sprintf "%s chunks=%d" c.Generators.family chunks)
                  true
                  (Bisection.all_gains_chunked ~chunks g side = reference))
              [ 1; 4; 7 ];
            check_bool (c.Generators.family ^ " adaptive") true
              (Bisection.all_gains g side = reference))
          family_cases);
    case "chunked edge enumeration equals the sequential fill, all families"
      (fun () ->
        List.iter
          (fun c ->
            let g = c.Generators.graph in
            let reference = Matching.upper_edges g in
            List.iter
              (fun chunks ->
                check_bool
                  (Printf.sprintf "%s chunks=%d" c.Generators.family chunks)
                  true
                  (Matching.upper_edges ~chunks g = reference))
              [ 1; 3; 8 ])
          family_cases);
    case "chunked contraction equals the sequential sweep, all families"
      (fun () ->
        List.iter
          (fun c ->
            let g = c.Generators.graph in
            let m = Matching.random_maximal (Helpers.rng ~seed:c.Generators.seed ()) g in
            let reference = Contraction.contract g m in
            List.iter
              (fun chunks ->
                let ct = Contraction.contract ~chunks g m in
                check_bool
                  (Printf.sprintf "%s chunks=%d graph" c.Generators.family chunks)
                  true
                  (Graph.equal ct.Contraction.coarse reference.Contraction.coarse);
                check_bool
                  (Printf.sprintf "%s chunks=%d map" c.Generators.family chunks)
                  true
                  (ct.Contraction.fine_to_coarse = reference.Contraction.fine_to_coarse))
              [ 1; 5 ])
          family_cases);
    case "matching and contraction are identical at jobs 1 vs 4, all families"
      (fun () ->
        List.iter
          (fun c ->
            let g = c.Generators.graph in
            let at jobs =
              with_jobs jobs (fun () ->
                  let m =
                    Matching.random_maximal (Helpers.rng ~seed:c.Generators.seed ()) g
                  in
                  let ct = Contraction.contract ~chunks:5 g m in
                  (m.Matching.pairs, ct.Contraction.fine_to_coarse))
            in
            check_bool c.Generators.family true (at 1 = at 4))
          family_cases);
    Helpers.qtest ~count:120 "qcheck: chunked gains equal sequential on random graphs"
      (Helpers.gen_graph ~max_n:20 ())
      (fun g ->
        let side = Helpers.balanced_sides (Helpers.rng ()) g in
        let reference = Bisection.all_gains_sequential g side in
        List.for_all
          (fun chunks -> Bisection.all_gains_chunked ~chunks g side = reference)
          [ 1; 2; 5 ]);
    Helpers.qtest ~count:120 "qcheck: chunked upper_edges equals sequential"
      (Helpers.gen_graph ~max_n:20 ())
      (fun g ->
        let reference = Matching.upper_edges g in
        List.for_all (fun chunks -> Matching.upper_edges ~chunks g = reference) [ 1; 6 ]);
    Helpers.qtest ~count:120 "qcheck: chunked contraction equals sequential"
      (Helpers.gen_weighted_graph ~max_n:16 ())
      (fun g ->
        let m = Matching.random_maximal (Helpers.rng ()) g in
        let reference = Contraction.contract g m in
        List.for_all
          (fun chunks ->
            let ct = Contraction.contract ~chunks g m in
            Graph.equal ct.Contraction.coarse reference.Contraction.coarse
            && ct.Contraction.fine_to_coarse = reference.Contraction.fine_to_coarse)
          [ 1; 3 ]);
  ]

let () =
  Alcotest.run "race"
    [
      ("xsa", xsa_tests @ xsa_pin_tests);
      ("race portfolio", race_tests);
      ("parallel kernels", kernel_tests);
    ]
