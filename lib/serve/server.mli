(** The [gbisect serve] daemon: bisection as a service.

    A single-process, single-loop server that accepts {!Protocol}
    requests over a Unix-domain or TCP socket, schedules [solve] jobs
    one at a time (each job's best-of-starts fan-out runs on the
    ambient {!Gb_par.Pool}, so [--jobs] parallelism applies inside a
    job), answers repeat queries from the content-addressed
    {!Gb_store.Store} cache, and reports per-request metrics and spans
    through {!Gb_obs}.

    {b Concurrency model.} The accept/read/respond loop and the solver
    run on one domain; a server value is confined to that domain and
    needs no locking. Clients therefore observe: control ops ([ping],
    [stats], [shutdown]) answered between jobs, [solve] jobs answered
    in arrival order, and — the backpressure contract — an explicit
    [overloaded] error the moment the bounded job queue is full.
    Nothing in the server buffers without bound: the job queue is
    capped ([queue_capacity]), request lines are capped ([max_frame],
    longer lines cost one [too_large] error), and a connection whose
    unread responses exceed 8×[max_frame] is closed as a slow
    consumer.

    {b Determinism.} A [solve] answer is a pure function of
    (canonical graph, algorithm, starts, seed): the engine is
    {!Gb_solvers.Solvers.best_of}, the same call as [Gbisect.solve],
    so the service returns bit-identical cuts and sides to a local
    [gbisect solve] of the same job, at any [--jobs] value.
    Only the [seconds] field is wall-clock — and cache hits replay the
    original compute's seconds verbatim.

    See SERVING.md for the wire protocol, the operational guide and
    every error/exit path. *)

type addr = Unix_path of string | Tcp of string * int

val parse_addr : string -> (addr, string) Result.t
(** ["unix:PATH"], ["tcp:HOST:PORT"], or a bare [PATH] (taken as a
    Unix socket path). *)

val addr_to_string : addr -> string
(** Canonical rendering, accepted back by {!parse_addr}. *)

type config = {
  queue_capacity : int;  (** Max queued [solve] jobs before [overloaded]. *)
  max_frame : int;  (** Max request-line bytes before [too_large]. *)
  starts_cap : int;  (** Max [starts] a single job may request. *)
  store : Gb_store.Store.t option;  (** Result cache; [None] disables caching. *)
  log : string -> unit;  (** Operational log lines (no trailing newline). *)
}

val default_config : config
(** queue 64, frame 8 MiB, starts cap 512, no store, silent log. *)

type t
(** Server state: counters plus the configuration. Confined to the
    domain that runs {!serve} (or that calls {!handle} in tests). *)

val create : config -> t

val handle : t -> Protocol.request -> Protocol.response
(** Process one already-parsed request synchronously: the full
    validate → cache-lookup → solve → cache-store path, updating
    counters, metrics and spans. The socket loop calls this for each
    dequeued job; tests call it directly to exercise the service
    semantics without a socket. [Shutdown] marks the server stopping
    (observable via {!stopping}); queueing and [overloaded]/[too_large]
    handling live in {!serve}, which owns the transport. *)

val stats : t -> Protocol.stats
val stopping : t -> bool

val serve : ?stop:(unit -> bool) -> t -> addr -> Protocol.stats
(** Bind, listen and run the request loop until [stop ()] becomes true
    (polled at least every 0.2 s — the CLI's SIGTERM/SIGINT handlers
    flip the flag), a [shutdown] request arrives, or the listener
    dies. On shutdown every queued job is answered with a
    [shutting_down] error, buffered responses are flushed, sockets are
    closed, a Unix socket path is unlinked, and the final stats are
    returned.

    A stale Unix socket file (left by a killed server: nothing
    accepts on it) is unlinked and rebound; a {e live} one raises.
    @raise Failure if the address cannot be bound or is in use. *)
