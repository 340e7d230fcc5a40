(* Tests for the experiment harness: profiles, table rendering, the
   runner protocol and the registry. Experiment *content* runs under the
   smoke profile to stay fast. *)

module Profile = Gbisect.Profile
module Runner = Gbisect.Runner
module Registry = Gbisect.Registry
module Table = Gbisect.Experiment_table
module Classic = Gbisect.Classic
module Rng = Gbisect.Rng

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

(* --- Profile ---------------------------------------------------------------- *)

let profile_tests =
  [
    case "by_name resolves all spellings" (fun () ->
        check_bool "smoke" true (Profile.by_name "smoke" <> None);
        check_bool "quick" true (Profile.by_name "quick" <> None);
        check_bool "paper" true (Profile.by_name "paper" <> None);
        check_bool "full alias" true (Profile.by_name "full" <> None);
        check_bool "unknown" true (Profile.by_name "nope" = None));
    case "scaled is even and bounded below" (fun () ->
        check_bool "even" true (Profile.scaled Profile.quick 5000 land 1 = 0);
        check_bool "floor" true (Profile.scaled Profile.smoke 50 >= 16);
        check_int "paper keeps size" 5000 (Profile.scaled Profile.paper 5000));
    case "profiles have sane knobs" (fun () ->
        List.iter
          (fun p ->
            check_bool (p.Profile.name ^ " starts") true (p.Profile.starts >= 1);
            check_bool (p.Profile.name ^ " replicates") true (p.Profile.replicates >= 1);
            Gbisect.Schedule.validate p.Profile.sa_schedule)
          [ Profile.smoke; Profile.quick; Profile.paper ]);
  ]

(* --- Table rendering ----------------------------------------------------------- *)

let table_tests =
  [
    case "render aligns columns and includes notes" (fun () ->
        let out =
          Table.render ~title:"T" ~notes:[ "hello" ]
            ~header:[ "a"; "value" ]
            [ [ "row1"; "1" ]; [ "longer-row"; "22" ] ]
        in
        check_bool "title" true (Helpers.contains out "T\n");
        check_bool "note" true (Helpers.contains out "note: hello");
        check_bool "separator" true (Helpers.contains out "---");
        (* numeric cells right-aligned: " 1" under "value" *)
        check_bool "right aligned" true (Helpers.contains out "    1"));
    case "short rows are padded" (fun () ->
        let out = Table.render ~title:"T" ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
        check_bool "renders" true (String.length out > 0));
    case "improvement_pct" (fun () ->
        Alcotest.(check (float 1e-9)) "50%" 50. (Table.improvement_pct ~base:10. ~improved:5.);
        Alcotest.(check (float 1e-9)) "0 base" 0. (Table.improvement_pct ~base:0. ~improved:5.);
        Alcotest.(check (float 1e-9)) "worse" (-100.)
          (Table.improvement_pct ~base:5. ~improved:10.));
    case "mean and stddev" (fun () ->
        Alcotest.(check (float 1e-9)) "mean" 2. (Table.mean [ 1.; 2.; 3. ]);
        Alcotest.(check (float 1e-9)) "empty mean" 0. (Table.mean []);
        Alcotest.(check (float 1e-9)) "stddev" 1. (Table.stddev [ 1.; 2.; 3. ]);
        Alcotest.(check (float 1e-9)) "singleton" 0. (Table.stddev [ 4. ]));
    case "stddev never goes nan on degenerate samples" (fun () ->
        (* regression: n-1 = 0 must report "no spread", not nan, or the
           rendered tables and strict JSON both blow up downstream *)
        List.iter
          (fun xs -> check_bool "finite" true (Float.is_finite (Table.stddev xs)))
          [ []; [ 0. ]; [ 7.5 ]; [ 3.; 3.; 3. ] ]);
    case "run and quad JSON codecs invert" (fun () ->
        let run cut = { Runner.cut; seconds = 0.125 *. float_of_int cut; balanced = cut mod 2 = 0 } in
        let r = run 9 in
        check_bool "run" true (Runner.run_of_json (Runner.run_to_json r) = Some r);
        let q = { Runner.bsa = run 4; bcsa = run 3; bkl = run 8; bckl = run 1 } in
        check_bool "quad" true (Runner.quad_of_json (Runner.quad_to_json q) = Some q);
        check_bool "mismatch is None" true
          (Runner.quad_of_json (Runner.run_to_json r) = None));
    case "to_csv quotes and escapes" (fun () ->
        let csv =
          Table.to_csv ~header:[ "a"; "b" ]
            [ [ "plain"; "with,comma" ]; [ "with\"quote"; "multi\nline" ] ]
        in
        check_bool "header" true (Helpers.contains csv "a,b\n");
        check_bool "comma quoted" true (Helpers.contains csv "\"with,comma\"");
        check_bool "quote doubled" true (Helpers.contains csv "\"with\"\"quote\"");
        check_bool "newline quoted" true (Helpers.contains csv "\"multi\nline\""));
    case "cells format" (fun () ->
        Alcotest.(check string) "int" "42" (Table.int_cell 42);
        Alcotest.(check string) "pct" "12.5%" (Table.pct_cell 12.5);
        Alcotest.(check string) "seconds" "0.123" (Table.seconds_cell 0.1234);
        Alcotest.(check string) "float" "1.50" (Table.float_cell 1.5));
  ]

(* --- Runner ----------------------------------------------------------------------- *)

let runner_tests =
  [
    case "algorithm names round-trip" (fun () ->
        List.iter
          (fun a ->
            match Runner.of_name (Runner.name a) with
            | Some a' -> check_bool "round trip" true (a = a')
            | None -> Alcotest.failf "failed on %s" (Runner.name a))
          [ Runner.Sa; Runner.Csa; Runner.Kl; Runner.Ckl; Runner.Fm; Runner.Multilevel_kl ];
        check_bool "unknown" true (Runner.of_name "zzz" = None));
    case "paper_four is SA CSA KL CKL" (fun () ->
        Alcotest.(check (list string)) "order" [ "SA"; "CSA"; "KL"; "CKL" ]
          (List.map Runner.name Runner.paper_four));
    case "run_once returns balanced runs for every algorithm" (fun () ->
        let g = Classic.grid ~rows:6 ~cols:6 in
        List.iter
          (fun a ->
            let r = Runner.run_once Profile.smoke (Helpers.rng ()) a g in
            check_bool (Runner.name a ^ " balanced") true r.Runner.balanced;
            check_bool (Runner.name a ^ " cut sane") true (r.Runner.cut >= 6);
            check_bool (Runner.name a ^ " timed") true (r.Runner.seconds >= 0.))
          [ Runner.Sa; Runner.Csa; Runner.Kl; Runner.Ckl; Runner.Fm; Runner.Multilevel_kl ]);
    case "best_of_starts keeps the best cut and sums times" (fun () ->
        let g = Classic.ladder 40 in
        let profile = { Profile.smoke with Profile.starts = 3 } in
        let one = Runner.run_once profile (Helpers.rng ()) Runner.Kl g in
        let best = Runner.best_of_starts profile (Helpers.rng ()) Runner.Kl g in
        check_bool "best <= single" true (best.Runner.cut <= max one.Runner.cut (one.Runner.cut));
        check_bool "time accumulates" true (best.Runner.seconds >= one.Runner.seconds *. 0.1));
    case "averaged_quads averages cuts" (fun () ->
        let mk c = { Runner.cut = c; seconds = 1.0; balanced = true } in
        let q c = { Runner.bsa = mk c; bcsa = mk c; bkl = mk c; bckl = mk c } in
        let avg = Runner.averaged_quads [ q 10; q 20 ] in
        check_int "mean cut" 15 avg.Runner.bsa.Runner.cut;
        Alcotest.(check (float 1e-9)) "mean seconds" 1.0 avg.Runner.bsa.Runner.seconds);
    case "averaged_quads rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Runner.averaged_quads: empty")
          (fun () -> ignore (Runner.averaged_quads [])));
  ]

(* --- Registry ----------------------------------------------------------------------- *)

let registry_tests =
  [
    case "all experiment ids are unique" (fun () ->
        let ids = Registry.ids () in
        check_int "no duplicates" (List.length ids)
          (List.length (List.sort_uniq String.compare ids)));
    case "find resolves every listed id" (fun () ->
        List.iter
          (fun id -> check_bool id true (Registry.find id <> None))
          (Registry.ids ());
        check_bool "unknown" true (Registry.find "bogus" = None));
    case "the DESIGN.md inventory is covered" (fun () ->
        (* Every table/figure id promised in DESIGN.md must exist. *)
        List.iter
          (fun id -> check_bool ("registry has " ^ id) true (Registry.find id <> None))
          [
            "table1"; "ladder"; "grid"; "tree";
            "g2set-5000-d2.5"; "g2set-5000-d3"; "g2set-5000-d3.5"; "g2set-5000-d4";
            "gnp-5000"; "gbreg-5000-d3"; "gbreg-5000-d4";
            "g2set-2000-d2.5"; "g2set-2000-d3"; "g2set-2000-d3.5"; "g2set-2000-d4";
            "gnp-2000"; "gbreg-2000-d3"; "gbreg-2000-d4";
            "obs1"; "obs2"; "obs4"; "ablate-matching"; "ablate-levels";
          ]);
    case "a small experiment renders a non-empty table" (fun () ->
        (* Run the cheapest special-graph table under the smoke profile. *)
        match Registry.find "ladder" with
        | None -> Alcotest.fail "ladder missing"
        | Some e ->
            let out = e.Registry.run Profile.smoke in
            check_bool "has header" true (Helpers.contains out "bsa");
            check_bool "has rows" true (Helpers.contains out "ladder 2x"));
  ]

(* --- Paper_table protocol (via the public pieces) ------------------------------------- *)

let protocol_tests =
  [
    case "paper_quad runs all four algorithms" (fun () ->
        let g = Classic.grid ~rows:4 ~cols:4 in
        let q = Runner.paper_quad Profile.smoke (Helpers.rng ()) g in
        List.iter
          (fun (name, r) ->
            check_bool (name ^ " balanced") true r.Runner.balanced;
            check_bool (name ^ " cut >= width") true (r.Runner.cut >= 4))
          [ ("sa", q.Runner.bsa); ("csa", q.Runner.bcsa); ("kl", q.Runner.bkl);
            ("ckl", q.Runner.bckl) ]);
    case "experiments are reproducible (seeded)" (fun () ->
        match Registry.find "tree" with
        | None -> Alcotest.fail "tree missing"
        | Some e ->
            (* Cut columns must match across runs; timing columns differ.
               Compare the cut-related prefix of each row. *)
            let strip_times s =
              String.split_on_char '\n' s
              |> List.map (fun line ->
                     match String.index_opt line '.' with
                     | Some i -> String.sub line 0 i
                     | None -> line)
              |> String.concat "\n"
            in
            let a = e.Registry.run Profile.smoke and b = e.Registry.run Profile.smoke in
            Alcotest.(check string) "same cuts" (strip_times a) (strip_times b));
  ]

(* --- Sign test ---------------------------------------------------------------- *)

module Sign_test = Gb_experiments.Sign_test

let sign_test_tests =
  [
    case "of_pairs counts wins, ties dropped, smaller is better" (fun () ->
        let t = Sign_test.of_pairs [ (1, 2); (3, 3); (5, 4); (2, 9); (7, 7) ] in
        check_int "wins_a" 2 t.Sign_test.wins_a;
        check_int "wins_b" 1 t.Sign_test.wins_b;
        check_int "ties" 2 t.Sign_test.ties;
        check_bool "win rate" true
          (Float.abs (t.Sign_test.win_rate_a -. (2. /. 3.)) < 1e-9));
    case "binomial_two_sided is symmetric and exact at the corners" (fun () ->
        let p = Sign_test.binomial_two_sided in
        check_bool "k and n-k agree" true
          (Float.abs (p ~n:10 ~k:2 -. p ~n:10 ~k:8) < 1e-12);
        check_bool "an even split is certain" true
          (Float.abs (p ~n:10 ~k:5 -. 1.0) < 1e-9);
        (* P(all 8 one way, doubled): 2 * 2^-8 *)
        check_bool "extreme tail" true
          (Float.abs (p ~n:8 ~k:8 -. (2. /. 256.)) < 1e-12);
        check_bool "never exceeds 1" true (p ~n:4 ~k:2 <= 1.0));
    case "pp renders the counts and the p-value" (fun () ->
        let t = Sign_test.of_pairs [ (1, 2); (5, 4); (2, 9) ] in
        let s = Format.asprintf "%a" Sign_test.pp t in
        check_bool "mentions wins" true (Helpers.contains s "2");
        check_bool "non-empty" true (String.length s > 10));
    case "paper_table header matches the quad column layout" (fun () ->
        let h = Gb_experiments.Paper_table.header in
        check_bool "has an instance column" true (List.mem "instance" h);
        List.iter
          (fun col -> check_bool col true (List.mem col h))
          [ "bsa"; "bcsa"; "bkl"; "bckl" ]);
  ]

(* --- ASCII charts ------------------------------------------------------------ *)

module Chart = Gb_experiments.Ascii_chart

let chart_tests =
  [
    case "render includes title, extremes and the axis" (fun () ->
        let out = Chart.render ~title:"T" [ 1.0; 5.0; 3.0 ] in
        check_bool "title" true (Helpers.contains out "T\n");
        check_bool "max label" true (Helpers.contains out "5.0");
        check_bool "min label" true (Helpers.contains out "1.0");
        check_bool "axis" true (Helpers.contains out "+---"));
    case "empty series renders a placeholder" (fun () ->
        check_bool "placeholder" true
          (Helpers.contains (Chart.render ~title:"T" []) "(empty series)"));
    case "constant series does not divide by zero" (fun () ->
        let out = Chart.render ~title:"T" [ 2.0; 2.0; 2.0 ] in
        check_bool "renders" true (String.length out > 0));
    case "long series are downsampled to a bounded width" (fun () ->
        let series = List.init 10_000 (fun i -> float_of_int (i mod 100)) in
        let out = Chart.render ~title:"T" series in
        let max_line =
          String.split_on_char '\n' out
          |> List.fold_left (fun acc l -> max acc (String.length l)) 0
        in
        check_bool "bounded" true (max_line < 100));
    case "downsampling keeps spikes (bucket max)" (fun () ->
        let series = List.init 1000 (fun i -> if i = 500 then 99.0 else 1.0) in
        check_bool "spike survives" true (Helpers.contains (Chart.render ~title:"T" series) "99.0"));
    case "sparkline basics" (fun () ->
        check_int "empty" 0 (String.length (Chart.sparkline []));
        let s = Chart.sparkline [ 0.; 1.; 2.; 3. ] in
        check_int "length" 4 (String.length s);
        check_bool "ends high" true (s.[3] = '#'));
    case "custom height respected" (fun () ->
        let out = Chart.render ~title:"T" ~height:4 [ 1.; 2. ] in
        (* title + 4 rows + axis (+ nothing else) *)
        check_int "lines" 6 (List.length (String.split_on_char '\n' (String.trim out))));
  ]

let extension_experiment_tests =
  [
    case "figures experiment renders all three charts" (fun () ->
        match Registry.find "figures" with
        | None -> Alcotest.fail "figures missing"
        | Some e ->
            let out = e.Registry.run Profile.smoke in
            check_bool "kl figure" true (Helpers.contains out "KL cut vs pass");
            check_bool "sa figure" true (Helpers.contains out "SA best cost");
            check_bool "ml figure" true (Helpers.contains out "multilevel"));
    case "netlist experiment renders" (fun () ->
        match Registry.find "netlist" with
        | None -> Alcotest.fail "netlist missing"
        | Some e ->
            let out = e.Registry.run Profile.smoke in
            check_bool "has HFM column" true (Helpers.contains out "HFM"));
    case "geometric experiment renders" (fun () ->
        match Registry.find "geometric" with
        | None -> Alcotest.fail "geometric missing"
        | Some e ->
            let out = e.Registry.run Profile.smoke in
            check_bool "has strip column" true (Helpers.contains out "strip"));
    case "spectral baseline renders" (fun () ->
        match Registry.find "baseline-spectral" with
        | None -> Alcotest.fail "baseline-spectral missing"
        | Some e ->
            let out = e.Registry.run Profile.smoke in
            check_bool "has spectral column" true (Helpers.contains out "spectral"));
  ]

let scale_suite_tests =
  let module S = Gbisect.Scale_suite in
  [
    case "a small run is deterministic apart from timings" (fun () ->
        let run () = S.run ~algorithm:`Mlfm ~seed:5 (S.Gnp { n = 2000; avg_degree = 4. }) in
        let a = run () and b = run () in
        check_int "n" 2000 a.S.n;
        check_int "same m" a.S.m b.S.m;
        check_int "same cut" a.S.cut b.S.cut;
        check_int "same levels" a.S.levels b.S.levels;
        check_bool "balanced" true a.S.balanced;
        check_bool "several levels" true (a.S.levels > 1));
    case "grid model and flat baselines work" (fun () ->
        let r = S.run ~algorithm:`Fm ~seed:3 (S.Grid { rows = 30; cols = 40 }) in
        check_int "n" 1200 r.S.n;
        check_int "m" ((30 * 39) + (29 * 40)) r.S.m;
        check_int "flat solver is one level" 1 r.S.levels;
        check_bool "balanced" true r.S.balanced);
    case "refine_passes trades cut for passes deterministically" (fun () ->
        let run p =
          (S.run ~ml:{ S.default_ml_config with refine_passes = p } ~algorithm:`Mlfm ~seed:5
             (S.Gnp { n = 4000; avg_degree = 4. }))
            .S.cut
        in
        check_int "stable at fixed passes" (run 1) (run 1);
        check_bool "more passes never hurt the fixed seed" true (run 8 <= run 1));
    case "json artifact carries schema, host and rss fields" (fun () ->
        let r = S.run ~algorithm:`Multilevel ~seed:2 (S.Gnp { n = 1000; avg_degree = 3. }) in
        let s = Gbisect.Obs.Json.to_string (S.to_json r) in
        List.iter
          (fun needle -> check_bool needle true (Helpers.contains s needle))
          [
            "\"schema_version\":"; "\"host\":"; "\"ocaml_version\":"; "\"model\":";
            "\"algorithm\":\"mlkl\""; "\"peak_rss_bytes\":";
          ];
        check_bool "render mentions the cut" true
          (Helpers.contains (S.render r) (string_of_int r.S.cut)));
  ]

let () =
  Alcotest.run "experiments"
    [
      ("profile", profile_tests);
      ("table", table_tests);
      ("runner", runner_tests);
      ("registry", registry_tests);
      ("protocol", protocol_tests);
      ("sign test", sign_test_tests);
      ("charts", chart_tests);
      ("extension experiments", extension_experiment_tests);
      ("scale suite", scale_suite_tests);
    ]
