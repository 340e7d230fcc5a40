(* Order statistics and process memory readings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [p] in (0, 100]; nan without samples, which
   fails the run when reported. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

(* Median by averaging the two middle samples of an even count; nan
   without samples. *)
let median xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set size (VmHWM) of a process in MiB, read from
   /proc/<pid>/status ("self" for the calling process). *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM line for process " ^ pid)
      in
      scan ())

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let setups = 5

(* Set up [setups] times, [dispose] each earlier result untimed, and
   return the last result with the median set-up time. *)
let repeated_setup ?(dispose = ignore) setup =
  let rec go k acc =
    let v, dt = time setup in
    if k = 1 then (v, median (dt :: acc))
    else begin
      dispose v;
      go (k - 1) (dt :: acc)
    end
  in
  go setups []

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)

(* The host's speed drifts by 10-20% over tens of seconds, and solve
   times with it. Every workload's solve_s is scaled to the reference
   host, the 2-vCPU VM of README.md's baselines, by the calibration
   kernel's slowdown against that host, timed at the same moments as
   the work. *)

(* One repetition of the calibration kernel: a fixed loop that streams
   short-lived blocks through the minor heap, as the solvers do. It
   uses no gbisect code. *)
let calib_iterations = 3_000_000

let calib_rep ?(iterations = calib_iterations) () =
  let l = ref [] in
  for i = 1 to iterations do
    l := (i, i) :: (if i land 1023 = 0 then [] else !l)
  done;
  ignore (Sys.opaque_identity !l)

(* A repetition's typical time on the reference host, run on 1 or on 2
   domains at once (they contend for memory and minor collections). *)
let reference_calib_s ~domains = if domains > 1 then 0.017 else 0.013

(* [reps] repetitions of the kernel, each run at once on [domains]
   domains (1 or 2) and timed until all finish, as work that runs on
   both domains waits for the slower one. Each is returned as the
   host's slowdown: its time over the reference time. *)
let calibrate ?(domains = 1) reps =
  List.init reps (fun _ ->
      let (), dt =
        time (fun () ->
            let other = if domains > 1 then Some (Domain.spawn calib_rep) else None in
            calib_rep ();
            Option.iter Domain.join other)
      in
      dt /. reference_calib_s ~domains)

(* One shorter repetition on 1 domain, as a slowdown: short enough to
   run between the sends of an open loop. *)
let calibrate_short () =
  let (), dt = time (calib_rep ~iterations:(calib_iterations / 4)) in
  4. *. dt /. reference_calib_s ~domains:1

(* [raw] seconds measured while the calibration read the slowdowns
   [calib], in reference-host seconds. *)
let normalise ~calib raw = raw /. median calib

(* ------------------------------------------------------------------ *)
(* Batch workloads: a few fresh processes per run                      *)

(* What one measured run (one fresh process) reports back: its set-up
   time, its solve times in a fixed order (one per instance or corpus
   cell), the calibration slowdowns read between them, its
   peak RSS (VmHWM of a fresh process is this run's own), its total cut
   and its checks. *)
type sample = {
  setup_s : float;
  solves : float list;
  calib : float list;
  rss_mb : float;
  cut : int;
  attempted : int;
  failed : int;
}

let sample_to_line s =
  String.concat " "
    (Printf.sprintf "%.17g %.17g %d %d %d %d" s.setup_s s.rss_mb s.cut s.attempted s.failed
       (List.length s.solves)
    :: List.map (Printf.sprintf "%.17g") (s.solves @ s.calib))

let sample_of_line line =
  let malformed () = failwith ("malformed measured-run result: " ^ line) in
  match String.split_on_char ' ' (String.trim line) with
  | setup :: rss :: cut :: attempted :: failed :: n :: times -> (
      try
        let n = int_of_string n and times = List.map float_of_string times in
        if n > List.length times then malformed ();
        {
          setup_s = float_of_string setup;
          rss_mb = float_of_string rss;
          cut = int_of_string cut;
          attempted = int_of_string attempted;
          failed = int_of_string failed;
          solves = List.filteri (fun i _ -> i < n) times;
          calib = List.filteri (fun i _ -> i >= n) times;
        }
      with Failure _ -> malformed ())
  | _ -> malformed ()

(* Split instances [0, n) into at most [setups] contiguous slices, one
   per measured run, so set-up and peak RSS are sampled several times
   per run. *)
let slices n =
  let runs = min setups n in
  List.init runs (fun r -> List.init (((r + 1) * n / runs) - (r * n / runs)) (fun i -> (r * n / runs) + i))

(* The sum over positions of the median across [rows] of that position:
   [rows] are equally long lists of per-cell times, one per measured
   run. A slow spell of the host lands on a few cells of one run, and
   the per-cell median drops it. *)
let sum_of_medians rows =
  match rows with
  | [] -> nan
  | first :: _ ->
      sum (List.mapi (fun i _ -> median (List.map (fun row -> List.nth row i) rows)) first)

(* Run this executable again with [args]; its last stdout line is a
   sample, and the lines before it are passed through. *)
let run_child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match (Unix.close_process_in ic, List.rev (String.split_on_char '\n' (String.trim out))) with
  | Unix.WEXITED 0, last :: before ->
      List.iter print_endline (List.rev before);
      sample_of_line last
  | _ -> failwith ("measured run failed: " ^ String.concat " " args)
