(* Tests for Gb_lint: the tokenizer's lexical corners, one positive and
   one negative case per rule, pragma and allowlist semantics, and —
   the check that keeps the whole PR honest — that the repo's own
   sources lint clean. *)

module Tokenizer = Gb_lint.Tokenizer
module Rules = Gbisect.Lint_rules
module Lint = Gbisect.Lint
module Resolve = Gb_lint.Resolve
module Program = Gbisect.Lint_program
module Graph_rules = Gb_lint.Graph_rules

let case = Helpers.case
let check_int = Helpers.check_int
let check_bool = Helpers.check_bool

let tokens src =
  Array.to_list (Tokenizer.tokenize src).Tokenizer.tokens
  |> List.map (fun p -> p.Tokenizer.tok)

let comments src = (Tokenizer.tokenize src).Tokenizer.comments

(* Findings for [src] pretended to live at [file] (default: library
   code, where every rule applies). *)
let findings ?(file = "lib/fixture/code.ml") src =
  Rules.check_source ~file src

let rules_of fs = List.map (fun f -> f.Rules.rule) fs

let check_rules label expected fs =
  Alcotest.(check (list string))
    label
    (List.sort String.compare expected)
    (List.sort String.compare (rules_of fs))

(* --- Tokenizer ------------------------------------------------------------- *)

let tokenizer_tests =
  [
    case "identifiers, modules, numbers, symbols" (fun () ->
        Alcotest.(check bool)
          "tokens" true
          (tokens "let x = Foo.bar 42"
          = [
              Tokenizer.Ident "let";
              Tokenizer.Ident "x";
              Tokenizer.Sym "=";
              Tokenizer.Uident "Foo";
              Tokenizer.Sym ".";
              Tokenizer.Ident "bar";
              Tokenizer.Number "42";
            ]));
    case "comments produce no tokens and are collected" (fun () ->
        let src = "let a = 1\n(* Random.int inside a comment *)\nlet b = 2\n" in
        check_bool "no Random token" true
          (not (List.mem (Tokenizer.Uident "Random") (tokens src)));
        match comments src with
        | [ c ] ->
            check_int "start line" 2 c.Tokenizer.c_start;
            check_int "end line" 2 c.Tokenizer.c_end;
            check_bool "text kept" true
              (Helpers.contains c.Tokenizer.c_text "Random.int")
        | cs -> Alcotest.failf "expected 1 comment, got %d" (List.length cs));
    case "nested comments close at the right depth" (fun () ->
        let src = "(* outer (* inner *) still outer *) let x = 1" in
        check_bool "x survives" true (List.mem (Tokenizer.Ident "x") (tokens src));
        check_int "one comment" 1 (List.length (comments src)));
    case "a string inside a comment hides a close-comment" (fun () ->
        (* Per the real lexer, a close-comment sequence inside a
           commented string literal does not end the comment. *)
        let src = "(* tricky \" *) \" end *) let y = 2" in
        check_bool "y survives" true (List.mem (Tokenizer.Ident "y") (tokens src)));
    case "string literals keep content, escapes protected" (fun () ->
        match tokens {|let s = "a\"b *) c"|} with
        | [ _; _; _; Tokenizer.Str s ] ->
            check_bool "escaped quote inside" true (Helpers.contains s "b *) c")
        | _ -> Alcotest.fail "expected one string token");
    case "quoted strings have no escapes" (fun () ->
        match tokens "let s = {id|raw \\ \" content|id}" with
        | [ _; _; _; Tokenizer.Str s ] ->
            Alcotest.(check string) "verbatim" {|raw \ " content|} s
        | _ -> Alcotest.fail "expected one quoted-string token");
    case "char literals versus type variables and primes" (fun () ->
        check_bool "plain char" true
          (List.mem (Tokenizer.Chr "a") (tokens "let c = 'a'"));
        check_bool "escaped quote char" true
          (List.mem (Tokenizer.Chr "\\'") (tokens "let c = '\\''"));
        check_bool "newline escape" true
          (List.mem (Tokenizer.Chr "\\n") (tokens "let c = '\\n'"));
        (* 'a in a type is not a char literal; x' keeps its prime *)
        check_bool "type variable" true
          (not
             (List.exists
                (function Tokenizer.Chr _ -> true | _ -> false)
                (tokens "type 'a t = 'a list")));
        check_bool "prime suffix" true
          (List.mem (Tokenizer.Ident "x'") (tokens "let x' = x")));
    case "positions are 1-based lines" (fun () ->
        let t = Tokenizer.tokenize "let a = 1\nlet b = 2\n" in
        let lines =
          Array.to_list t.Tokenizer.tokens
          |> List.filter_map (fun p ->
                 match p.Tokenizer.tok with
                 | Tokenizer.Ident ("a" | "b") -> Some p.Tokenizer.line
                 | _ -> None)
        in
        Alcotest.(check (list int)) "lines" [ 1; 2 ] lines);
    case "tokenize never raises on unterminated input" (fun () ->
        ignore (tokens "(* never closed");
        ignore (tokens "let s = \"never closed");
        ignore (tokens "let s = {|never closed"));
  ]

(* --- Rules: one positive and the telling negatives per rule ---------------- *)

let rule_tests =
  [
    case "no-ambient-random fires on Random.*" (fun () ->
        check_rules "positive" [ "no-ambient-random" ]
          (findings "let x = Random.int 5");
        check_rules "other module" [] (findings "let x = Rng.int rng 5"));
    case "no-wall-clock fires on Sys.time and Unix.gettimeofday" (fun () ->
        check_rules "sys" [ "no-wall-clock" ] (findings "let t = Sys.time ()");
        check_rules "unix" [ "no-wall-clock" ]
          (findings "let t = Unix.gettimeofday ()");
        check_rules "clock is fine" [] (findings "let t = Clock.now ()"));
    case "no-marshal fires on Marshal" (fun () ->
        check_rules "positive" [ "no-marshal" ]
          (findings "let s = Marshal.to_string x []"));
    case "no-hashtbl-hash fires on Hashtbl.hash" (fun () ->
        check_rules "positive" [ "no-hashtbl-hash" ]
          (findings "let h = Hashtbl.hash x");
        check_rules "find is fine" [] (findings "let v = Hashtbl.find t k"));
    case "no-poly-compare: bare and Stdlib.compare, not typed ones" (fun () ->
        check_rules "bare" [ "no-poly-compare" ]
          (findings "let xs = List.sort compare xs");
        check_rules "stdlib" [ "no-poly-compare" ]
          (findings "let xs = List.sort Stdlib.compare xs");
        check_rules "typed" []
          (findings "let xs = List.sort Int.compare xs");
        check_rules "labelled arg" []
          (findings "let x = best ~compare:(fun a b -> Int.compare a b) xs");
        check_rules "definition" [] (findings "let compare a b = Int.compare a b"));
    case "no-float-format: lib-only, %% escapes, hex floats exempt" (fun () ->
        check_rules "positive" [ "no-float-format" ]
          (findings {|let s = Printf.sprintf "%.2f" x|});
        check_rules "ints fine" [] (findings {|let s = Printf.sprintf "%d" x|});
        check_rules "escaped percent" []
          (findings {|let s = Printf.sprintf "100%%fun" ()|});
        check_rules "hex float is exact" []
          (findings {|let s = Printf.sprintf "%h" x|});
        check_rules "not in executables" []
          (findings ~file:"bench/main.ml" {|let s = Printf.sprintf "%.2f" x|}));
    case "no-stdout-in-lib: lib-only" (fun () ->
        check_rules "positive" [ "no-stdout-in-lib" ]
          (findings {|let () = print_string "hi"|});
        check_rules "stderr fine" []
          (findings {|let () = Printf.eprintf "hi"|});
        check_rules "executables may print" []
          (findings ~file:"bin/cli.ml" {|let () = print_string "hi"|}));
    case "no-exit-in-lib: lib-only" (fun () ->
        check_rules "positive" [ "no-exit-in-lib" ] (findings "let () = exit 1");
        check_rules "executables may exit" []
          (findings ~file:"bin/cli.ml" "let () = exit 1"));
    case "no-naked-mutable-global: top-level refs and tables" (fun () ->
        check_rules "ref" [ "no-naked-mutable-global" ] (findings "let r = ref 0");
        check_rules "hashtbl" [ "no-naked-mutable-global" ]
          (findings "let t = Hashtbl.create 16");
        check_rules "atomic fine" [] (findings "let r = Atomic.make 0");
        check_rules "local ref fine" []
          (findings "let f () =\n  let r = ref 0 in\n  !r");
        check_rules "ref in type annotation fine" []
          (findings "let k : int ref option Key.t = Key.make (fun () -> None)");
        check_rules "ref under fun fine" []
          (findings "let make = fun () -> ref 0"));
    case "rules never fire inside comments or strings" (fun () ->
        check_rules "comment" [] (findings "(* let x = Random.int 5 *) let a = 1");
        check_rules "string" [] (findings {|let doc = "Random.int, Sys.time"|}));
    case "mli interfaces are not scanned for impl-only rules" (fun () ->
        (* value specs mention ref types freely *)
        check_rules "mli ref" []
          (findings ~file:"lib/x/thing.mli" "val cell : int ref"));
  ]

(* --- Pragmas and the allowlist --------------------------------------------- *)

let pragma_tests =
  [
    case "a pragma with a reason suppresses the next line" (fun () ->
        check_rules "suppressed" []
          (findings
             "(* lint: allow no-ambient-random — fixture exercises the pragma *)\n\
              let x = Random.int 5"));
    case "a pragma on the same line suppresses too" (fun () ->
        check_rules "same line" []
          (findings
             "let x = Random.int 5 (* lint: allow no-ambient-random — inline *)"));
    case "the reason is mandatory" (fun () ->
        check_rules "malformed + still fires" [ "no-ambient-random"; "pragma" ]
          (findings "(* lint: allow no-ambient-random *)\nlet x = Random.int 5"));
    case "unknown rules are reported" (fun () ->
        check_rules "unknown" [ "pragma" ]
          (findings "(* lint: allow no-such-rule — why not *)\nlet x = 1"));
    case "an unused pragma is reported" (fun () ->
        check_rules "unused" [ "pragma" ]
          (findings "(* lint: allow no-ambient-random — nothing here *)\nlet x = 1");
        match findings "(* lint: allow no-ambient-random — nothing *)\nlet x = 1" with
        | [ f ] -> check_bool "warning" true (f.Rules.severity = Rules.Warning)
        | _ -> Alcotest.fail "expected exactly the unused-pragma finding");
    case "a pragma only suppresses its own rule" (fun () ->
        (* the mismatched pragma also shows up as unused *)
        check_rules "wrong rule named" [ "no-wall-clock"; "pragma" ]
          (findings
             "(* lint: allow no-ambient-random — wrong rule *)\nlet t = Sys.time ()"));
    case "allowlist: the owning module is exempt" (fun () ->
        check_rules "prng may use Random" []
          (findings ~file:"lib/prng/rng.ml" "let x = Random.int 5");
        check_rules "clock may read the wall clock" []
          (findings ~file:"lib/obs/clock.ml" "let source = Atomic.make Sys.time");
        check_rules "others may not" [ "no-ambient-random" ]
          (findings ~file:"lib/kl/kl.ml" "let x = Random.int 5"));
    case "every allowlist rule name is real" (fun () ->
        List.iter
          (fun (_, rules) -> List.iter (fun r -> check_bool r true (Rules.known_rule r)) rules)
          Rules.allowlist);
  ]

(* --- Extractor: adversarial shapes ------------------------------------------ *)

let extract src = Resolve.extract (Tokenizer.tokenize src)
let def_names x = List.map (fun d -> d.Resolve.d_name) x.Resolve.x_defs

let extractor_tests =
  [
    case "attributed let bindings are named" (fun () ->
        let x =
          extract
            "let[@inline] f x = x\n\
             let rec[@inline] g x = g x\n\
             let[@inline never] rec h x = h x\n\
             let[@inline] k = 1\n"
        in
        List.iter
          (fun name -> check_bool (name ^ " extracted") true (List.mem name (def_names x)))
          [ "f"; "g"; "h"; "k" ];
        check_bool "no attribute names" false (List.mem "inline" (def_names x));
        Alcotest.(check (option (pair string string)))
          "enclosing binding" (Some ("let", "g"))
          (Rules.enclosing_binding
             (Tokenizer.tokenize "let[@inline] f x = x\nlet rec[@inline] g x =\n  g x\n")
             3));
    case "functor bodies contribute qualified defs" (fun () ->
        let x =
          extract
            "module Make (X : S) = struct\n\
            \  let run g = X.go g\n\
             end\n"
        in
        check_bool "Make.run extracted" true (List.mem "Make.run" (def_names x)));
    case "first-class module arguments do not derail the head" (fun () ->
        let x = extract "let solve (module M : Solver) g = M.run g\n" in
        check_bool "solve extracted" true (List.mem "solve" (def_names x)));
    case "let-open and local-open targets are collected file-wide" (fun () ->
        let x =
          extract
            "let a g = let open Gb_kl.Kl in one_pass g\n\
             let b g = Gb_anneal.Sa.(plateau g)\n"
        in
        check_bool "let open" true
          (List.mem [ "Gb_kl"; "Kl" ] x.Resolve.x_opens);
        check_bool "local open" true
          (List.mem [ "Gb_anneal"; "Sa" ] x.Resolve.x_opens));
    case "shadowed module aliases keep the earlier binding first" (fun () ->
        let x = extract "module K = Gb_kl.Kl\nmodule K = Gb_anneal.Sa\nlet f g = K.go g\n" in
        (match List.assoc_opt "K" x.Resolve.x_aliases with
        | Some [ "Gb_kl"; "Kl" ] -> ()
        | Some other ->
            Alcotest.failf "first binding should win, got %s"
              (String.concat "." other)
        | None -> Alcotest.fail "alias K not extracted");
        check_int "both recorded" 2
          (List.length
             (List.filter (fun (n, _) -> n = "K") x.Resolve.x_aliases)));
    case "operator definitions are named and recognized" (fun () ->
        let x = extract "let ( <+> ) a b = a + b\n" in
        (match def_names x with
        | [ name ] ->
            check_bool "operator name" true (Resolve.is_operator_name name)
        | ds -> Alcotest.failf "expected 1 def, got %d" (List.length ds));
        check_bool "plain name is not an operator" true
          (not (Resolve.is_operator_name "run")));
    case "rng parameters and mutable module state are marked" (fun () ->
        let x =
          extract
            "let cell = ref 0\n\
             let kernel rng g = step rng g\n\
             let local () = let c = ref 0 in !c\n"
        in
        let find n = List.find (fun d -> d.Resolve.d_name = n) x.Resolve.x_defs in
        check_bool "cell is mutable state" true (find "cell").Resolve.d_mutable_state;
        check_bool "kernel takes a stream" true (find "kernel").Resolve.d_rng_param;
        check_bool "a local ref is not module state" true
          (not (find "local").Resolve.d_mutable_state));
    case "is_pool_path recognizes fan-out entry points" (fun () ->
        check_bool "qualified" true
          (Program.is_pool_path [ "Gb_par"; "Pool"; "map" ]);
        check_bool "short" true (Program.is_pool_path [ "Pool"; "map_list" ]);
        check_bool "not an entry" true
          (not (Program.is_pool_path [ "Pool"; "no_such" ]));
        check_bool "not the pool" true
          (not (Program.is_pool_path [ "Stack"; "map" ])));
  ]

(* --- Interprocedural rules on constructed programs -------------------------- *)

(* A three-module library where a Pool.map thunk reaches mutable module
   state two calls away — the same shape CI's fault-injection fixture
   uses. [variant] swaps the fan-out line. *)
let fixture ~par =
  let run_body =
    if par then "let run xs = Gb_par.Pool.map (fun _ -> Fix_mid.note ()) xs\n"
    else "let run xs = List.map (fun _ -> Fix_mid.note ()) xs\n"
  in
  [
    ("fix/dune", "(library\n (name fix))\n");
    ("fix/fix_state.ml", "let cell = ref 0\nlet touch () = incr cell\n");
    ("fix/fix_mid.ml", "let note () = Fix_state.touch ()\n");
    ("fix/fix_par.ml", run_body);
  ]

let graph_findings sources = Graph_rules.check (Program.create sources)

let program_rule_tests =
  [
    case "par-unsafe-state: mutable state reached through two modules" (fun () ->
        match
          List.filter
            (fun f -> f.Rules.rule = "par-unsafe-state")
            (graph_findings (fixture ~par:true))
        with
        | [ f ] ->
            check_bool "at the defining file" true
              (Helpers.contains f.Rules.file "fix_state.ml");
            check_bool "chain has >= 2 hops" true (List.length f.Rules.why >= 2);
            check_bool "chain starts at the fan-out" true
              (match f.Rules.why with
              | root :: _ -> Helpers.contains root "Fix_par"
              | [] -> false)
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "par-unsafe-state: silent without a parallel region" (fun () ->
        check_bool "no finding" true
          (List.for_all
             (fun f -> f.Rules.rule <> "par-unsafe-state")
             (graph_findings (fixture ~par:false))));
    case "par-ambient-rng: Random inside a worker, at the draw line" (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ( "fix/fix_par.ml",
              "let helper x =\n\
              \  Random.int x\n\
               let run xs = Gb_par.Pool.map helper xs\n" );
          ]
        in
        match
          List.filter
            (fun f -> f.Rules.rule = "par-ambient-rng")
            (graph_findings sources)
        with
        | [ f ] -> check_int "line of the draw" 2 f.Rules.line
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "par-wall-clock: Sys.time inside a worker; explicit streams fine"
      (fun () ->
        let sources clock =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ( "fix/fix_par.ml",
              Printf.sprintf "let work _ = %s\nlet run xs = Gb_par.Pool.map work xs\n"
                (if clock then "Sys.time ()" else "Gb_obs.Clock.now ()") );
          ]
        in
        check_rules "clock read flagged" [ "par-wall-clock" ]
          (List.filter
             (fun f -> f.Rules.rule = "par-wall-clock")
             (graph_findings (sources true)));
        check_rules "routed clock fine" []
          (List.filter
             (fun f -> f.Rules.rule = "par-wall-clock")
             (graph_findings (sources false))));
    case "rng-stream-discipline: a kernel must not open a second stream"
      (fun () ->
        let sources body =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_kernel.ml", Printf.sprintf "let jitter rng n = %s\n" body);
          ]
        in
        check_rules "fresh seed flagged" [ "rng-stream-discipline" ]
          (graph_findings (sources "Rng.int (Rng.create ~seed:n) 3"));
        check_rules "derived substream fine" []
          (graph_findings (sources "Rng.int (Rng.substream rng n) 3")));
    case "dead-export: unreferenced interface exports, used ones spared"
      (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_api.ml", "let used x = x + 1\nlet unused x = x - 1\n");
            ("fix/fix_api.mli", "val used : int -> int\nval unused : int -> int\n");
            ("fix/fix_caller.ml", "let go x = Fix_api.used x\n");
          ]
        in
        match graph_findings sources with
        | [ f ] ->
            Alcotest.(check string) "rule" "dead-export" f.Rules.rule;
            check_bool "names the dead export" true
              (Helpers.contains f.Rules.message "`unused`")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
    case "dead-export: an attributed definition is still referenced" (fun () ->
        let sources =
          [
            ("fix/dune", "(library\n (name fix))\n");
            ("fix/fix_api.ml", "let[@inline] used x = x + 1\nlet rec[@inline] also x = also x\n");
            ("fix/fix_api.mli", "val used : int -> int\nval also : int -> int\n");
            ("fix/fix_caller.ml", "let go x = Fix_api.used (Fix_api.also x)\n");
          ]
        in
        match graph_findings sources with
        | [] -> ()
        | f :: _ -> Alcotest.failf "unexpected finding: %s" f.Rules.message);
    case "every program rule name is registered" (fun () ->
        List.iter
          (fun r -> check_bool r true (Rules.program_rule_name r))
          [
            "par-unsafe-state"; "par-ambient-rng"; "par-wall-clock";
            "rng-stream-discipline"; "dead-export";
          ];
        check_bool "file-local rule is not a program rule" true
          (not (Rules.program_rule_name "no-ambient-random")));
    case "chains answer --why through the graph" (fun () ->
        let p = Program.create (fixture ~par:true) in
        match Program.find_symbol p "Fix_state.touch" with
        | None -> Alcotest.fail "touch not found"
        | Some n ->
            check_bool "reachable" true
              (Program.parallel_reachable p n.Program.n_id);
            let chain = Program.chain p n.Program.n_id in
            check_bool "chain >= 2" true (List.length chain >= 2);
            check_bool "ends at touch" true
              (match List.rev chain with
              | last :: _ -> Helpers.contains last "touch"
              | [] -> false));
  ]

(* --- Pragma accessors (the API the staleness messages are built from) ------- *)

let pragma_accessor_tests =
  [
    case "pragma accessors expose line, rules and coverage" (fun () ->
        let scanned =
          Rules.scan_source ~file:"lib/fixture/code.ml"
            "(* lint: allow no-ambient-random — fixture *)\nlet x = 1\n"
        in
        match scanned.Rules.s_pragmas with
        | [ p ] ->
            check_int "line" 1 (Rules.pragma_line p);
            Alcotest.(check (list string))
              "rules" [ "no-ambient-random" ] (Rules.pragma_rules p);
            check_bool "covers next line" true
              (Rules.pragma_covers p ~rule:"no-ambient-random" ~line:2);
            check_bool "not three lines down" true
              (not (Rules.pragma_covers p ~rule:"no-ambient-random" ~line:4));
            check_bool "not another rule" true
              (not (Rules.pragma_covers p ~rule:"no-wall-clock" ~line:2));
            (* marking it used by hand (as the program driver does for
               graph findings) keeps apply_pragmas from calling it stale *)
            Rules.pragma_mark_used p;
            check_rules "no stale report" []
              (Rules.apply_pragmas scanned ~extra:[])
        | ps -> Alcotest.failf "expected 1 pragma, got %d" (List.length ps));
    case "stale pragmas name the nearest enclosing binding" (fun () ->
        let src =
          "let outer = 1\n\n(* lint: allow no-ambient-random — nothing here *)\nlet inner = 2\n"
        in
        let lexed = Tokenizer.tokenize src in
        (match Rules.enclosing_binding lexed 3 with
        | Some ("let", "outer") -> ()
        | Some (kw, n) -> Alcotest.failf "expected `let outer`, got `%s %s`" kw n
        | None -> Alcotest.fail "no enclosing binding found");
        match findings src with
        | [ f ] ->
            check_bool "message names the rule" true
              (Helpers.contains f.Rules.message "no-ambient-random");
            check_bool "message names the binding" true
              (Helpers.contains f.Rules.message "let outer")
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs));
  ]

(* --- Driver and self-lint --------------------------------------------------- *)

let repo_root () =
  (* dune runs tests from _build/default/test; the checkout root is the
     nearest ancestor holding .git. *)
  let rec up d =
    if Sys.file_exists (Filename.concat d ".git") then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else up parent
  in
  up (Sys.getcwd ())

let driver_tests =
  [
    case "expand_paths errors on a missing path" (fun () ->
        match Lint.expand_paths [ "no/such/path-xyzzy" ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected an error");
    case "render_json parses and counts findings" (fun () ->
        let report =
          { Lint.files = [ "lib/a.ml" ];
            findings = findings "let x = Random.int 5" }
        in
        let j = Gbisect.Obs.Json.of_string (Lint.render_json report) in
        check_bool "schema_version" true
          (Gbisect.Obs.Json.member "schema_version" j
          = Some (Gbisect.Obs.Json.Int Lint.schema_version));
        check_bool "files_scanned" true
          (Gbisect.Obs.Json.member "files_scanned" j
          = Some (Gbisect.Obs.Json.Int 1));
        (match Gbisect.Obs.Json.member "findings" j with
        | Some (Gbisect.Obs.Json.List [ _ ]) -> ()
        | _ -> Alcotest.fail "expected one finding in JSON");
        check_int "exit 1 on findings" 1 (Lint.exit_code report));
    case "exit_code is 0 when clean" (fun () ->
        check_int "clean" 0 (Lint.exit_code { Lint.files = []; findings = [] }));
    case "lint_files takes exact files, no directory walk" (fun () ->
        match repo_root () with
        | None -> Alcotest.fail "could not locate the repo root from the test cwd"
        | Some root ->
            let f = Filename.concat root "lib/prng/rng.ml" in
            let report = Lint.lint_files [ f ] in
            Alcotest.(check (list string)) "just that file" [ f ] report.Lint.files);
    case "the repo's own sources lint clean" (fun () ->
        match repo_root () with
        | None -> Alcotest.fail "could not locate the repo root from the test cwd"
        | Some root ->
            let paths =
              List.map (Filename.concat root) [ "lib"; "bin"; "bench"; "test" ]
            in
            (match Lint.lint_paths paths with
            | Error msg -> Alcotest.failf "lint_paths: %s" msg
            | Ok report ->
                check_bool "several files scanned" true
                  (List.length report.Lint.files > 100);
                if report.Lint.findings <> [] then
                  Alcotest.failf "repo is not lint-clean:\n%s"
                    (Lint.render_human report)));
    case "the repo's own sources survive whole-program analysis" (fun () ->
        match repo_root () with
        | None -> Alcotest.fail "could not locate the repo root from the test cwd"
        | Some root ->
            let paths =
              List.filter Sys.file_exists
                (List.map (Filename.concat root)
                   [ "lib"; "bin"; "bench"; "test"; "examples"; "lint" ])
            in
            (match Lint.lint_program paths with
            | Error msg -> Alcotest.failf "lint_program: %s" msg
            | Ok (report, p) ->
                let modules, defs, edges, par = Program.stats p in
                check_bool "a real graph" true
                  (modules > 50 && defs > 500 && edges > 1000 && par > 50);
                if report.Lint.findings <> [] then
                  Alcotest.failf "repo is not clean under --program:\n%s"
                    (Lint.render_human report)));
  ]

let () =
  Alcotest.run "lint"
    [
      ("tokenizer", tokenizer_tests);
      ("rules", rule_tests);
      ("pragmas", pragma_tests);
      ("extractor", extractor_tests);
      ("program rules", program_rule_tests);
      ("pragma accessors", pragma_accessor_tests);
      ("driver", driver_tests);
    ]
