(* serve-open: the `gbisect serve` daemon as a subprocess with a fresh
   store, driven open-loop by one process over two connections: solve
   requests at a fixed rate on one pipelined connection, pings at a
   fixed rate on the other. Latency runs from each request's due time. *)

module G = Gbisect
module P = G.Serve_protocol

(* A run whose generator ran later than this at p99 measured its own
   scheduling, not the daemon: it fails. *)
let late_limit_ms = 20.

(* ------------------------------------------------------------------ *)
(* Scratch space and the daemon process                                *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

type daemon = { pid : int; sock : string }

(* Paths are relative to the checkout root (the working directory), so
   the socket path stays short wherever the checkout lives. *)
let start_daemon ~cli ~dir =
  let sock = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "serve.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "unix:" ^ sock; "--store"; Filename.concat dir "store"; "--jobs"; "2" |]
      devnull devnull log
  in
  Unix.close log;
  Unix.close devnull;
  { pid; sock }

let connect d =
  let deadline = Measure.now () +. 20. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX d.sock) with
    | () -> fd
    | exception Unix.Unix_error _ when Measure.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go ()
  in
  go ()

let wait_exit d =
  let deadline = Measure.now () +. 10. in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Non-blocking connections                                            *)

(* Not Serve_client: its blocking send stalls on a full socket while the
   daemon is busy solving, which would make an open-loop generator late.
   Here unsent bytes wait in a per-connection queue instead. *)

type conn = {
  fd : Unix.file_descr;
  frames : P.Frames.t;
  out : (string * int ref) Queue.t;  (* chunks to write, with bytes already written *)
}

let conn fd =
  Unix.set_nonblock fd;
  { fd; frames = P.Frames.create ~max_frame:(64 * 1024 * 1024); out = Queue.create () }

let enqueue c line =
  Queue.add (line, ref 0) c.out;
  Queue.add ("\n", ref 0) c.out

let rec flush c =
  match Queue.peek_opt c.out with
  | None -> ()
  | Some (s, off) -> (
      match Unix.write_substring c.fd s !off (String.length s - !off) with
      | n ->
          off := !off + n;
          if !off = String.length s then begin
            ignore (Queue.pop c.out);
            flush c
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())

let read_buf = Bytes.create 65536

(* Complete responses available now, in arrival order. *)
let read_responses c =
  match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
  | 0 -> failwith "the daemon closed the connection"
  | n ->
      List.map
        (function
          | `Line l -> (
              match P.response_of_line l with
              | Ok r -> r
              | Error e -> failwith ("unparsable response: " ^ e))
          | `Oversized _ -> failwith "oversized response")
        (P.Frames.feed c.frames (Bytes.sub_string read_buf 0 n))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> []

(* A closed-loop call, for control requests outside the timed phase. *)
let call c req =
  enqueue c (P.request_to_line req);
  let rec go () =
    flush c;
    let wr = if Queue.is_empty c.out then [] else [ c.fd ] in
    ignore (Unix.select [ c.fd ] wr [] 1.0);
    match read_responses c with r :: _ -> r | [] -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  plan : Inputs.plan;
  daemon : daemon;
  solve_conn : conn;
  ping_conn : conn;
}

let stats_of c =
  match (call c (P.Stats (Some "stats"))).reply with
  | P.Stats_reply s -> s
  | _ -> failwith "stats: unexpected reply"

let shutdown s =
  (try ignore (call s.ping_conn (P.Shutdown (Some "bye"))) with Failure _ | Unix.Unix_error _ -> ());
  (try Unix.close s.solve_conn.fd with Unix.Unix_error _ -> ());
  (try Unix.close s.ping_conn.fd with Unix.Unix_error _ -> ());
  wait_exit s.daemon

(* Plan generation, daemon start with a fresh store, the first ping,
   and an untimed warm-up: one closed-loop solve per algorithm. *)
let setup ~cli ~root ~seed ~count k =
  let plan = Inputs.serve_plan ~seed ~count in
  let dir = Filename.concat root (string_of_int k) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let daemon = start_daemon ~cli ~dir in
  let ping_conn = conn (connect daemon) in
  let solve_conn = conn (connect daemon) in
  (match (call ping_conn (P.Ping (Some "first"))).reply with
  | P.Pong -> ()
  | _ -> failwith "first ping: unexpected reply");
  List.iter
    (fun line ->
      enqueue solve_conn line;
      let rec wait () =
        flush solve_conn;
        ignore (Unix.select [ solve_conn.fd ] [] [] 1.0);
        if read_responses solve_conn = [] then wait ()
      in
      wait ())
    (Inputs.warmup_lines plan);
  { plan; daemon; solve_conn; ping_conn }

(* ------------------------------------------------------------------ *)
(* The open loop                                                       *)

type outcome = {
  responses : (P.response * float) option array;  (* per query: reply, latency s *)
  lateness : float list;  (* seconds behind schedule, every request *)
  pings : float list;  (* ping latencies, s *)
  calib : float list;  (* host slowdowns read during the loop *)
  missing_pings : int;
  stray : int;  (* responses that answer no outstanding request *)
}

let calib_every = 0.25
let calib_gap = 0.006

let drive s ~seconds =
  let queries = s.plan.Inputs.queries in
  let n = Array.length queries in
  let n_pings = int_of_float (Inputs.ping_rate *. seconds) in
  let t0 = Measure.now () +. 0.05 in
  let due_solve i = t0 +. (float_of_int i /. Inputs.serve_rate) in
  let due_ping k = t0 +. (float_of_int k /. Inputs.ping_rate) in
  let responses = Array.make n None and pings = Array.make n_pings None in
  let lateness = ref [] and stray = ref 0 in
  let next_solve = ref 0 and next_ping = ref 0 in
  let answered = ref 0 and ponged = ref 0 in
  let calib = ref [] and next_calib = ref t0 in
  let deadline = t0 +. seconds +. 60. in
  (* Answer ids are "s<index>" and "p<index>"; anything else is stray. *)
  let index prefix count (resp : P.response) =
    match resp.rid with
    | Some id when String.length id > 1 && id.[0] = prefix -> (
        match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
        | Some i when i >= 0 && i < count -> Some i
        | _ -> None)
    | _ -> None
  in
  let receive conn prefix slots due counter arrived =
    List.iter
      (fun resp ->
        match index prefix (Array.length slots) resp with
        | Some i when slots.(i) = None ->
            slots.(i) <- Some (resp, arrived -. due i);
            incr counter
        | _ -> incr stray)
      (read_responses conn)
  in
  let rec loop () =
    let now = Measure.now () in
    if (!answered < n || !ponged < n_pings) && now < deadline then begin
      while !next_solve < n && due_solve !next_solve <= now do
        enqueue s.solve_conn queries.(!next_solve).Inputs.line;
        lateness := (now -. due_solve !next_solve) :: !lateness;
        incr next_solve
      done;
      while !next_ping < n_pings && due_ping !next_ping <= now do
        enqueue s.ping_conn (P.request_to_line (P.Ping (Some (Printf.sprintf "p%d" !next_ping))));
        lateness := (now -. due_ping !next_ping) :: !lateness;
        incr next_ping
      done;
      flush s.solve_conn;
      flush s.ping_conn;
      let next_due =
        Float.min
          (if !next_solve < n then due_solve !next_solve else infinity)
          (if !next_ping < n_pings then due_ping !next_ping else infinity)
      in
      (* Every [calib_every] s, when every solve sent has been answered
         and nothing is due for [calib_gap] s, one short calibration
         repetition: the host's speed during the loop. Only while the
         daemon is idle, so the kernel never measures the daemon's own
         load; no send is delayed. *)
      if now >= !next_calib && !answered = !next_solve
         && next_due -. Measure.now () > calib_gap
      then begin
        calib := Measure.calibrate_short () :: !calib;
        next_calib := now +. calib_every
      end;
      let timeout = Float.max 0. (Float.min 0.05 (next_due -. Measure.now ())) in
      let conns = [ s.solve_conn; s.ping_conn ] in
      let wr = List.filter_map (fun c -> if Queue.is_empty c.out then None else Some c.fd) conns in
      let r, _, _ =
        try Unix.select (List.map (fun c -> c.fd) conns) wr [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let arrived = Measure.now () in
      if List.memq s.solve_conn.fd r then
        receive s.solve_conn 's' responses due_solve answered arrived;
      if List.memq s.ping_conn.fd r then receive s.ping_conn 'p' pings due_ping ponged arrived;
      loop ()
    end
  in
  loop ();
  {
    responses;
    lateness = !lateness;
    pings = List.filter_map (Option.map snd) (Array.to_list pings);
    calib = !calib;
    missing_pings = n_pings - !ponged;
    stray = !stray;
  }

(* ------------------------------------------------------------------ *)
(* Checking the answers                                                *)

let graphs_of plan =
  Array.map (fun (_, data) -> G.Graph_io.of_edge_list_string data) plan.Inputs.graphs

(* Every solve must be answered, balanced, and carry the cut of its own
   side array; a repeat must equal its original; a seeded sample of
   fresh answers must equal a local Gbisect.solve of the same job. *)
let check_answers report ~seed plan graphs outcome =
  let solved = Array.make (Array.length plan.Inputs.queries) None in
  Array.iteri
    (fun i (q : Inputs.query) ->
      match outcome.responses.(i) with
      | None -> Report.check report false "request %d: no response" i
      | Some ({ P.reply = P.Solved a; _ }, _) ->
          let g = graphs.(q.graph) in
          let ok =
            a.balanced
            && abs (a.n0 - a.n1) <= 1
            && a.n0 + a.n1 = G.Graph.n_vertices g
            && G.Bisection.compute_cut g a.side = a.cut
          in
          let same_as_original =
            match q.repeat_of with
            | None -> true
            | Some j -> (
                match solved.(j) with Some (o : P.solved) -> o.cut = a.cut && o.side = a.side | None -> false)
          in
          solved.(i) <- Some a;
          Report.check report (ok && same_as_original) "request %d: wrong answer" i
      | Some ({ P.reply = P.Failed (code, msg); _ }, _) ->
          Report.check report false "request %d: %s: %s" i (P.error_code_id code) msg
      | Some _ -> Report.check report false "request %d: unexpected reply" i)
    plan.Inputs.queries;
  Report.check report (outcome.missing_pings = 0) "%d pings unanswered" outcome.missing_pings;
  Report.check report (outcome.stray = 0) "%d responses answer no request" outcome.stray;
  (* The sample: one seeded pick of a fresh query per algorithm, plus
     the first large one, each only if the plan has it. *)
  let rng = Inputs.stream ~seed "serve.sample" in
  let fresh = List.filter (fun (q : Inputs.query) -> q.repeat_of = None) (Array.to_list plan.Inputs.queries) in
  let by_alg =
    List.filter_map
      (fun alg ->
        match List.filter (fun (q : Inputs.query) -> q.algorithm = alg) fresh with
        | [] -> None
        | qs -> Some (G.Rng.pick_list rng qs))
      [ `Ckl; `Mlfm; `Kl; `Xsa ]
  in
  let big = List.filter (fun (q : Inputs.query) -> q.graph >= Inputs.small_pool) fresh in
  let sample = by_alg @ (match big with q :: _ -> [ q ] | [] -> []) in
  List.iter
    (fun (q : Inputs.query) ->
      match solved.(q.index) with
      | None -> ()
      | Some a ->
          let local =
            G.solve ~algorithm:q.algorithm ~starts:1 (G.Rng.create ~seed:q.seed) graphs.(q.graph)
          in
          Report.check report
            (G.Bisection.cut local.G.bisection = a.cut && G.Bisection.sides local.G.bisection = a.side)
            "request %d (%s): served answer differs from a local solve" q.index
            (P.algorithm_id q.algorithm))
    sample

(* Fresh (uncached) answers with their latency, s. *)
let fresh_answers outcome =
  Array.to_list outcome.responses
  |> List.filter_map (function
       | Some ({ P.reply = P.Solved a; _ }, lat) when not a.cached -> Some (a, lat)
       | _ -> None)

let latencies_ms outcome =
  Array.to_list outcome.responses
  |> List.filter_map (function Some (_, lat) -> Some (1000. *. lat) | None -> None)

(* ------------------------------------------------------------------ *)
(* In-process layer timings (traced run)                               *)

let in_process_requests = 60

(* Parse, handle and encode the plan's first requests on an in-process
   server with a fresh store, in plan order, so repeats hit the cache.
   The untraced pass, without per-call timers, prices the timers. *)
let in_process ~dir ~traced plan =
  let time f = if traced then Measure.time f else (f (), 0.) in
  rm_rf dir;
  let store = G.Store.open_store ~readable:true dir in
  let server = G.Serve.create { G.Serve.default_config with store = Some store } in
  let queries = plan.Inputs.queries in
  let queries = Array.sub queries 0 (min in_process_requests (Array.length queries)) in
  let rows =
    Array.map
      (fun (q : Inputs.query) ->
        let req, parse = time (fun () -> P.request_of_line q.line) in
        match req with
        | Error (_, msg) -> failwith ("in-process parse: " ^ msg)
        | Ok req ->
            let resp, handle = time (fun () -> G.Serve.handle server req) in
            let _line, encode = time (fun () -> P.response_to_line resp) in
            (q, resp, parse, handle, encode))
      queries
  in
  G.Store.close store;
  rm_rf dir;
  Array.to_list rows

(* Xsa.run called directly on the job of a served xsa miss, with the
   server's seed derivation for one start; its cut must match. *)
let xsa_direct report graphs (q : Inputs.query) (a : P.solved) =
  let rng = G.Rng.create ~seed:q.seed in
  let rng = G.Rng.substream ~base:(G.Rng.derive_seed rng) 0 in
  let (b, _), dt = Measure.time (fun () -> G.Xsa.run rng graphs.(q.graph)) in
  Report.check report (G.Bisection.cut b = a.cut)
    "request %d: Xsa.run cut %d differs from the served cut %d" q.index (G.Bisection.cut b) a.cut;
  dt

let traced_metrics report ~dir plan graphs outcome =
  let set = Report.set report in
  let ms = List.map (fun x -> 1000. *. x) in
  (* A short plan may have no sample of some kind: that layer reads 0. *)
  let med xs = if xs = [] then 0. else Measure.median xs in
  let p99 xs = if xs = [] then 0. else Measure.percentile 99. xs in
  let fresh = fresh_answers outcome in
  set "serve.solve_ms" (med (ms (List.map (fun ((a : P.solved), _) -> a.seconds) fresh)));
  (* Computed, not measured: latency minus the daemon's own compute
     seconds, i.e. time queued behind other work and in transport. *)
  let wait = ms (List.map (fun ((a : P.solved), lat) -> lat -. a.seconds) fresh) in
  set "serve.wait_ms.p50" (med wait);
  set "serve.wait_ms.p99" (p99 wait);
  let _, plain_s = Measure.time (fun () -> in_process ~dir ~traced:false plan) in
  let rows, traced_s = Measure.time (fun () -> in_process ~dir ~traced:true plan) in
  let cached (resp : P.response) = match resp.reply with P.Solved a -> Some a.cached | _ -> None in
  let pick f = ms (List.filter_map f rows) in
  set "serve.parse_ms" (med (pick (fun (_, _, p, _, _) -> Some p)));
  set "serve.encode_ms" (med (pick (fun (_, _, _, _, e) -> Some e)));
  set "serve.handle_miss_ms"
    (med (pick (fun (_, r, _, h, _) -> if cached r = Some false then Some h else None)));
  set "serve.handle_hit_ms"
    (med (pick (fun (_, r, _, h, _) -> if cached r = Some true then Some h else None)));
  set "race.xsa_handle_ms"
    (med
       (pick (fun ((q : Inputs.query), r, _, h, _) ->
            if q.algorithm = `Xsa && cached r = Some false then Some h else None)));
  set "race.xsa_run_ms"
    (med
       (pick (fun ((q : Inputs.query), (r : P.response), _, _, _) ->
            match r.reply with
            | P.Solved a when q.algorithm = `Xsa && not a.cached -> Some (xsa_direct report graphs q a)
            | _ -> None)));
  set "bench.trace_overhead_frac" ((traced_s /. plain_s) -. 1.)

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let run report ~cli ~scratch ~seed ~seconds ~trace =
  let count = max 1 (int_of_float (Inputs.serve_rate *. seconds)) in
  let root = Filename.concat scratch "serve" in
  rm_rf root;
  Unix.mkdir root 0o755;
  let started = ref [] in
  Fun.protect
    ~finally:(fun () ->
      (* Reap every daemon, whatever happened. *)
      List.iter
        (fun d ->
          match Unix.waitpid [ Unix.WNOHANG ] d.pid with
          | 0, _ ->
              (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] d.pid)
          | _ | (exception Unix.Unix_error _) -> ())
        !started;
      rm_rf root)
  @@ fun () ->
  let s, setup_s =
    Measure.repeated_setup ~dispose:shutdown (fun () ->
        let s = setup ~cli ~root ~seed ~count (List.length !started) in
        started := s.daemon :: !started;
        s)
  in
  if not trace then Report.set report "setup_s" setup_s;
  let before = stats_of s.ping_conn in
  let outcome = drive s ~seconds in
  let after = stats_of s.ping_conn in
  let rss = Measure.vm_hwm_mb (string_of_int s.daemon.pid) in
  shutdown s;
  let graphs = graphs_of s.plan in
  check_answers report ~seed s.plan graphs outcome;
  let ms = List.map (fun x -> 1000. *. x) in
  let late_p99 = Measure.percentile 99. (ms outcome.lateness) in
  Report.check report (late_p99 <= late_limit_ms)
    "the load generator ran %.1f ms late at p99 (limit %.0f ms): run invalid" late_p99 late_limit_ms;
  let hits = after.P.cache_hits - before.P.cache_hits in
  let misses = after.P.cache_misses - before.P.cache_misses in
  let overloaded = after.P.overloaded - before.P.overloaded in
  let lat = latencies_ms outcome in
  let fresh = fresh_answers outcome in
  let p99 = Measure.percentile 99. in
  Printf.printf
    "serve-open: %d requests at %.0f/s, %d hits, %d misses, %d overloaded; p50 %.1f ms, p99 %.1f \
     ms, ping p99 %.1f ms, generator late p99 %.2f ms\n"
    (Array.length s.plan.Inputs.queries) Inputs.serve_rate hits misses overloaded
    (Measure.median lat) (p99 lat) (p99 (ms outcome.pings)) late_p99;
  List.iter
    (fun alg ->
      let mine =
        List.filter (fun ((a : P.solved), _) -> a.algorithm = alg) fresh
      in
      Printf.printf "  %s: %d fresh, %.3f s computing\n" (P.algorithm_id alg) (List.length mine)
        (Measure.sum (List.map (fun ((a : P.solved), _) -> a.seconds) mine)))
    [ `Ckl; `Mlfm; `Kl; `Xsa ];
  if trace then begin
    Report.set report "store.hit_frac" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    Report.set report "serve.overloaded" (float_of_int overloaded);
    Report.set report "serve.ping_p99_ms" (p99 (ms outcome.pings));
    Report.set report "serve.p50_ms" (Measure.median lat);
    Report.set report "serve.p99_ms" (p99 lat);
    Report.set report "serve.late_ms.p99" late_p99;
    traced_metrics report ~dir:(Filename.concat root "inproc") s.plan graphs outcome
  end
  else begin
    (* The solve time each fresh answer reports: latency also holds the
       wait behind other requests, which grows faster than the host
       slows, and is reported per layer (serve.p50_ms, serve.wait_ms). *)
    let raw = Measure.median (List.map (fun ((a : P.solved), _) -> a.seconds) fresh) in
    let v = Measure.normalise ~calib:outcome.calib raw in
    Report.print_normalised ~calib:outcome.calib ~raw v;
    Report.set report "solve_s" v;
    Report.set report "cut" (float_of_int (List.fold_left (fun acc ((a : P.solved), _) -> acc + a.cut) 0 fresh));
    Report.set report "peak_rss_mb" rss
  end
