(* A minimal in-memory span recorder for the traced run.

   Spans are recorded by the benchmark around its own calls into the
   library (no span lives inside the program). A span's name is
   "<layer>.<what>", where <layer> is a lib/ directory name, so self
   times roll up per layer. Single-domain: the traced calls are made
   from the benchmark's main domain. *)

type span = { id : int; name : string; parent : int; start : float; stop : float }

type t = {
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;  (* ids of open spans, innermost first *)
  mutable next : int;
}

let now = Unix.gettimeofday
let create () = { spans = []; stack = []; next = 0 }
let current t = match t.stack with id :: _ -> id | [] -> -1

let fresh t =
  let id = t.next in
  t.next <- id + 1;
  id

(* A span whose interval was measured by the caller (for phases that
   sit between two library callbacks rather than around one call). *)
let add t name ~start ~stop =
  let id = fresh t in
  t.spans <- { id; name; parent = current t; start; stop } :: t.spans;
  id

let with_span t name f =
  let id = fresh t in
  let parent = current t in
  let start = now () in
  t.stack <- id :: t.stack;
  let finish () =
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; parent; start; stop = now () } :: t.spans
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let duration s = s.stop -. s.start

let total t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. duration s else acc) 0. t.spans

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self time of every span under [root] (inclusive), summed per layer:
   a span's duration minus the durations of its direct children. *)
let self_by_layer t ~root =
  let all = spans t in
  let children id = List.filter (fun s -> s.parent = id) all in
  let table = Hashtbl.create 8 in
  let rec visit s =
    let kids = children s.id in
    let self = duration s -. List.fold_left (fun a k -> a +. duration k) 0. kids in
    let layer = layer_of s.name in
    Hashtbl.replace table layer
      (self +. Option.value ~default:0. (Hashtbl.find_opt table layer));
    List.iter visit kids
  in
  (match List.find_opt (fun s -> s.id = root) all with
  | Some s -> visit s
  | None -> invalid_arg "Span.self_by_layer: unknown root");
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])

let find_root t name =
  match List.find_opt (fun s -> s.name = name && s.parent = -1) (spans t) with
  | Some s -> s
  | None -> invalid_arg ("Span.find_root: no root span " ^ name)
