(* Subtractive lagged-Fibonacci generator, Knuth's ran_array design:
   lags (100, 37), modulus 2^30. The state is a circular buffer of the
   last [long_lag] outputs; an output is x.(i-100) - x.(i-37) mod 2^30.

   Seeding follows the spirit of Knuth's ran_start: the buffer is filled
   from a 64-bit SplitMix-style scrambler of the seed (which is itself a
   high-quality generator), then the lagged recurrence is warmed up for
   10 * long_lag steps so that any residual seed structure is diffused. *)

let long_lag = 100
let short_lag = 37
let bits = 30
let modulus = 1 lsl bits
let mask = modulus - 1

type t = {
  state : int array; (* circular buffer of [long_lag] previous outputs *)
  mutable pos : int; (* index of the next cell to produce/overwrite *)
}

(* SplitMix-style step used only for seeding. OCaml ints are 63-bit, so
   the classical 64-bit constants are truncated to 62 bits; the mixing
   quality is more than enough for filling a warm-up buffer. *)
let splitmix_next s =
  let s = s + 0x1E3779B97F4A7C15 in
  let z = s in
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (s, z lxor (z lsr 31))

let[@inline] next t =
  let i = t.pos in
  let j = i - short_lag in
  let j = if j < 0 then j + long_lag else j in
  let v = (t.state.(i) - t.state.(j)) land mask in
  t.state.(i) <- v;
  t.pos <- (if i + 1 = long_lag then 0 else i + 1);
  v

let create ~seed =
  let state = Array.make long_lag 0 in
  let s = ref seed in
  for i = 0 to long_lag - 1 do
    let s', z = splitmix_next !s in
    s := s';
    state.(i) <- z land mask
  done;
  (* Guarantee at least one odd value so the stream is not degenerate. *)
  if Array.for_all (fun v -> v land 1 = 0) state then state.(0) <- state.(0) lor 1;
  let t = { state; pos = 0 } in
  for _ = 1 to 10 * long_lag do
    ignore (next t)
  done;
  t

let copy t = { state = Array.copy t.state; pos = t.pos }

let derive_seed t =
  (* Two draws packed into a 60-bit seed; advances the parent by
     exactly two outputs no matter what is done with the result. *)
  let hi = next t in
  let lo = next t in
  (hi lsl bits) lor lo

let split t = create ~seed:(derive_seed t)

let mix_seed base salt =
  (* One SplitMix scramble of [base] perturbed by [salt] times the
     golden-ratio increment: for a fixed base, distinct salts give
     decorrelated seeds (this is exactly how SplitMix64 derives its
     output sequence from a counter). *)
  let _, z = splitmix_next (base + (salt * 0x1E3779B97F4A7C15)) in
  z land max_int

let self_test () =
  let g1 = create ~seed:42 and g2 = create ~seed:42 in
  let deterministic = ref true and in_range = ref true in
  for _ = 1 to 1000 do
    let a = next g1 and b = next g2 in
    if a <> b then deterministic := false;
    if a < 0 || a >= modulus then in_range := false
  done;
  let g3 = create ~seed:43 in
  let differs = ref false in
  for _ = 1 to 1000 do
    if next g1 <> next g3 then differs := true
  done;
  !deterministic && !in_range && !differs
