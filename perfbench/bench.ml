(* Benchmark entry point; run.py builds and invokes it. Prints a
   human-readable summary, then the result as the last stdout line. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --scratch DIR";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if not (List.mem_assoc workload Report.workloads) then begin
    Printf.eprintf "perfbench: unknown workload %S\n" workload;
    exit 2
  end;
  (* Solve and response timings are wall-clock, as the daemon's are. *)
  Gbisect.Obs.Clock.set Unix.gettimeofday;
  Gbisect.Pool.set_jobs 2;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A batch workload runs [slices] in fresh processes, one slice of
     instance numbers each. *)
  let batch measured_run slices =
    match List.assoc_opt "instances" opts with
    | Some ks ->
        (* A measured run of a batch workload, in this fresh process. *)
        let ks = List.map int_of_string (String.split_on_char ',' ks) in
        print_endline (Measure.sample_to_line (measured_run ~seed ~ks));
        exit 0
    | None ->
        let own = List.concat_map (fun (k, v) -> [ "--" ^ k; v ]) (List.rev opts) in
        List.map
          (fun ks ->
            Measure.run_child
              (own @ [ "--instances"; String.concat "," (List.map string_of_int ks) ]))
          slices
  in
  let report = Report.create () in
  (match (workload, trace) with
  | "vcycle-gnp", true -> Vcycle.traced report ~seed
  | "vcycle-gnp", false ->
      let n = Inputs.instances ~seconds ~per:Inputs.vcycle_seconds_per_instance in
      Report.set_batch report (batch Vcycle.measured_run (Measure.slices n))
        ~solve_s:Vcycle.solve_s
  | "paper-mix", true -> Paper_mix.traced report ~seed
  | "paper-mix", false ->
      let n = Inputs.instances ~seconds ~per:Inputs.paper_seconds_per_corpus in
      let one_corpus ~seed ~ks = match ks with [ k ] -> Paper_mix.measured_run ~seed ~k | _ -> usage () in
      Report.set_batch report (batch one_corpus (List.init n (fun k -> [ k ])))
        ~solve_s:Paper_mix.solve_s
  | _ -> Serve_open.run report ~cli:(get "cli") ~scratch:(get "scratch") ~seed ~seconds ~trace);
  if trace then Report.set report "bench.host_slowdown" (Measure.median (Measure.calibrate 25));
  let line = Report.to_line report ~trace in
  print_endline line;
  exit (if report.Report.failed = 0 then 0 else 1)
