module Rng = Gb_prng.Rng
module Sa = Gb_anneal.Sa
module Schedule = Gb_anneal.Schedule

type config = { imbalance_factor : float; schedule : Schedule.t }

let default_config = { imbalance_factor = 0.05; schedule = Schedule.default }

type stats = { sa : Sa.stats; initial_cut : int; final_cut : int }

module Problem = struct
  type state = {
    h : Hgraph.t;
    side : int array;
    pins : int array array; (* per net: [| count0; count1 |] *)
    mutable cut : int;
    mutable c0 : int;
    mutable c1 : int;
    alpha : float;
    balance_slack : int;
  }

  type move = int

  let size st = Hgraph.n_vertices st.h

  let cost st =
    let d = float_of_int (st.c0 - st.c1) in
    float_of_int st.cut +. (st.alpha *. d *. d)

  let random_move rng st = Rng.int rng (Hgraph.n_vertices st.h)

  (* Cut delta of flipping v: nets where v is the last pin on its side
     and the other side is inhabited become uncut (-1); nets entirely on
     v's side with other pins become cut (+1). *)
  let cut_delta st v =
    let s = st.side.(v) in
    let delta = ref 0 in
    Hgraph.iter_vertex_nets st.h v (fun e ->
        let same = st.pins.(e).(s) and other = st.pins.(e).(1 - s) in
        if same = 1 && other > 0 then decr delta
        else if other = 0 && same > 1 then incr delta);
    !delta

  let delta st v =
    let d = st.c0 - st.c1 in
    let d' = if st.side.(v) = 0 then d - 2 else d + 2 in
    float_of_int (cut_delta st v) +. (st.alpha *. float_of_int ((d' * d') - (d * d)))

  let apply st v =
    st.cut <- st.cut + cut_delta st v;
    let s = st.side.(v) in
    Hgraph.iter_vertex_nets st.h v (fun e ->
        st.pins.(e).(s) <- st.pins.(e).(s) - 1;
        st.pins.(e).(1 - s) <- st.pins.(e).(1 - s) + 1);
    if s = 0 then begin
      st.c0 <- st.c0 - 1;
      st.c1 <- st.c1 + 1
    end
    else begin
      st.c1 <- st.c1 - 1;
      st.c0 <- st.c0 + 1
    end;
    st.side.(v) <- 1 - s

  let step rng temperature st =
    let v = random_move rng st in
    let d = delta st v in
    if Sa.accept rng d temperature then begin
      apply st v;
      if d > 0. then Sa.Uphill else Sa.Downhill
    end
    else Sa.Rejected

  let feasible st = abs (st.c0 - st.c1) <= st.balance_slack

  let snapshot st =
    { st with side = Array.copy st.side; pins = Array.map Array.copy st.pins }

  (* Typed int loops over the snapshot's own arrays: no allocation and
     no caml_modify. *)
  let save ~src ~dst =
    let n = Array.length src.side and m = Array.length src.pins in
    if Array.length dst.side <> n || Array.length dst.pins <> m then
      invalid_arg "Hsa.Problem.save: states of different hypergraphs";
    let from = src.side and into = dst.side in
    for v = 0 to n - 1 do
      into.(v) <- from.(v)
    done;
    for e = 0 to m - 1 do
      let p = src.pins.(e) and q = dst.pins.(e) in
      q.(0) <- p.(0);
      q.(1) <- p.(1)
    done;
    dst.cut <- src.cut;
    dst.c0 <- src.c0;
    dst.c1 <- src.c1
end

module Engine = Sa.Make (Problem)

let make_state config h side =
  let n = Hgraph.n_vertices h in
  let pins = Array.init (Hgraph.n_nets h) (fun _ -> [| 0; 0 |]) in
  for e = 0 to Hgraph.n_nets h - 1 do
    Hgraph.iter_net h e (fun v -> pins.(e).(side.(v)) <- pins.(e).(side.(v)) + 1)
  done;
  let ones = Array.fold_left ( + ) 0 side in
  {
    Problem.h;
    side = Array.copy side;
    pins;
    cut = Hgraph.cut_size h side;
    c0 = n - ones;
    c1 = ones;
    alpha = config.imbalance_factor;
    balance_slack = n land 1;
  }

let refine ?(config = default_config) rng h side0 =
  if Array.length side0 <> Hgraph.n_vertices h then invalid_arg "Hsa: side length";
  if Array.exists (fun s -> s <> 0 && s <> 1) side0 then invalid_arg "Hsa: sides must be 0/1";
  if config.imbalance_factor <= 0. then invalid_arg "Hsa: imbalance_factor must be positive";
  let ones = Array.fold_left ( + ) 0 side0 in
  if abs (Array.length side0 - (2 * ones)) > 1 then
    invalid_arg "Hsa: input bisection is not balanced";
  let initial_cut = Hgraph.cut_size h side0 in
  let state = make_state config h side0 in
  let result = Engine.run ~schedule:config.schedule rng state in
  let snap = result.Engine.best in
  let snap_balanced =
    abs (snap.Problem.c0 - snap.Problem.c1) <= snap.Problem.balance_slack
  in
  let final_side = Hcoarsen.rebalance h result.Engine.final.Problem.side in
  let side =
    if snap_balanced && Hgraph.cut_size h snap.Problem.side <= Hgraph.cut_size h final_side
    then Array.copy snap.Problem.side
    else final_side
  in
  ( side,
    { sa = result.Engine.stats; initial_cut; final_cut = Hgraph.cut_size h side } )

let run ?config rng h =
  let n = Hgraph.n_vertices h in
  let perm = Rng.permutation rng n in
  let side0 = Array.make n 1 in
  for i = 0 to (n / 2) - 1 do
    side0.(perm.(i)) <- 0
  done;
  refine ?config rng h side0
