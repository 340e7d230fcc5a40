(** The gbisect serving wire protocol, version 1.

    One partitioning service message is one JSON object on one line
    (newline-delimited JSON — see SERVING.md for the normative
    specification, which this module implements verbatim). The codec
    here is total in both directions: every {!request}/{!response}
    value renders to a single line, and every line either parses back
    to the identical value or yields a documented {!error_code}. The
    fuzz harness holds the codec to that round-trip law on every
    corpus graph ([serve-codec] oracle).

    The module is transport-free (no sockets, no IO): {!Server} and
    {!Client} frame lines over file descriptors with {!Frames}, and
    the tests exercise the codec on plain strings. *)

(** {1 Framing} *)

(** Incremental splitter of a byte stream into protocol frames.

    Feed raw chunks as they arrive; complete lines come out in input
    order. A line longer than [max_frame] bytes (terminator excluded)
    is reported as [`Oversized] exactly once and its remaining bytes
    are discarded up to the next newline, after which framing resumes
    — one huge request costs one error response, never unbounded
    buffering. A trailing ["\r"] is stripped (CRLF clients work) and
    empty lines are dropped, as SERVING.md specifies. *)
module Frames : sig
  type t

  val create : max_frame:int -> t
  (** [create ~max_frame] accepts lines of up to [max_frame] bytes. *)

  val feed : t -> string -> [ `Line of string | `Oversized of int ] list
  (** [feed t chunk] appends [chunk] and returns the frames it
      completed, in order. [`Oversized n] reports a discarded line
      that had reached [n] bytes. *)

  val pending : t -> int
  (** Bytes buffered towards the next (incomplete) line. *)
end

(** {1 Requests} *)

type algorithm = Gb_solvers.Solvers.algorithm
(** The wire accepts every registered algorithm, by its
    {!Gb_solvers.Solvers.id} (case-insensitive, via
    {!Gb_solvers.Solvers.of_id}). *)

val algorithm_id : algorithm -> string
(** {!Gb_solvers.Solvers.id}: the lowercase wire name. *)

type graph_format = Edge_list | Metis

val format_id : graph_format -> string
(** ["edge-list"] or ["metis"]. *)

type solve = {
  id : string option;  (** Client correlation tag, echoed verbatim. *)
  format : graph_format;
  data : string;  (** The graph file contents, newlines included. *)
  algorithm : algorithm;
  starts : int;  (** Best-of-k random starts; must be >= 1. *)
  seed : int;  (** Master seed; the job's results are a function of it. *)
}

type request =
  | Solve of solve
  | Ping of string option  (** Liveness probe; [id] echoed. *)
  | Stats of string option  (** Server counters snapshot. *)
  | Shutdown of string option  (** Ask the daemon to stop cleanly. *)

val request_id : request -> string option

(** {1 Responses} *)

type error_code =
  | Bad_request  (** Malformed JSON, fields, graph payload, or a job the solver rejects. *)
  | Unsupported  (** Protocol version other than 1, or an unknown [op]. *)
  | Too_large  (** Request line exceeded the server's frame limit. *)
  | Overloaded  (** Job queue full; retry later (backpressure). *)
  | Shutting_down  (** Server is draining; no new jobs accepted. *)
  | Internal  (** Unexpected server-side failure. *)

val error_code_id : error_code -> string
(** Lowercase wire code, e.g. ["bad_request"]. *)

val error_code_of_id : string -> error_code option

type solved = {
  algorithm : algorithm;
  cut : int;
  n0 : int;  (** Vertices on side 0. *)
  n1 : int;
  side : int array;  (** Per-vertex side assignment, 0/1, length n. *)
  balanced : bool;
  seconds : float;  (** Compute time; replayed verbatim on cache hits. *)
  cached : bool;  (** True when answered from the result store. *)
}

type stats = {
  uptime_seconds : float;
  requests : int;  (** Every parsed request, control ops included. *)
  solved : int;
  errors : int;  (** Error responses sent (any code). *)
  overloaded : int;  (** Subset of [errors] with code [overloaded]. *)
  cache_hits : int;
  cache_misses : int;
  queue_depth : int;  (** Jobs waiting right now. *)
  queue_capacity : int;
}

type reply =
  | Solved of solved
  | Pong
  | Stats_reply of stats
  | Stopping  (** Acknowledges a [Shutdown] request. *)
  | Failed of error_code * string

type response = { rid : string option; reply : reply }

val ok : response -> bool
(** [true] unless the reply is [Failed]. *)

(** {1 Codec}

    Lines carry no trailing newline; the transport appends it. *)

val request_to_line : request -> string

val request_of_line : string -> (request, error_code * string) Result.t
(** Total parse of one frame: malformed JSON or fields yield the
    documented error code plus a human-readable message (the server
    sends both back verbatim). *)

val response_to_line : response -> string

val response_of_line : string -> (response, string) Result.t
(** Client-side parse; [Error] means the server (or the transport)
    violated the protocol. *)

val equal_request : request -> request -> bool
(** Structural equality (used by the round-trip oracle and tests). *)

val equal_response : response -> response -> bool

(** {1 Cache payload codec}

    The server persists each computed {!solved} record in the result
    store; a repeat query decodes it and flips [cached]. Exposed so the
    store payload and the wire payload can never drift apart. *)

val solved_to_json : solved -> Gb_obs.Json.t
val solved_of_json : Gb_obs.Json.t -> (solved, string) Result.t
