(* PCG-style generator on native 63-bit ints: a linear-congruential step
   whose output is tempered by a splitmix-style xorshift-multiply
   permutation. All state is a single mutable [int] field, so stepping
   never allocates (an [Int64] core would box a fresh value on every
   draw). Native-int arithmetic wraps modulo 2^63;
   the multiplier is Knuth's 6364136223846793005 reduced mod 2^63 and is
   ≡ 1 (mod 4), so with an odd increment the LCG has full period 2^63. *)

type t = { mutable s : int }

(* Constants folded from their canonical 64-bit forms at module init so
   the literals stay readable; each is a plain immutable int load at use
   sites. *)
let mult = Int64.to_int 6364136223846793005L
let inc = Int64.to_int 0x9E3779B97F4A7C15L (* odd: golden-ratio step *)
let m1 = Int64.to_int 0xBF58476D1CE4E5B9L
let m2 = Int64.to_int 0x94D049BB133111EBL

let[@inline] mix z =
  let z = (z lxor (z lsr 30)) * m1 in
  let z = (z lxor (z lsr 27)) * m2 in
  z lxor (z lsr 31)

let create seed = { s = mix (seed + inc) }
let copy g = { s = g.s }

let[@inline] bits g =
  g.s <- (g.s * mult) + inc;
  mix g.s land max_int

let split_seed g = bits g

let[@inline] float g =
  (* top 53 of the 62 usable bits *)
  float_of_int (bits g lsr 9) *. 0x1p-53

let[@inline] float_pos g =
  let u = float g in
  if u > 0.0 then u else epsilon_float

let[@inline] uniform g lo hi = lo +. ((hi -. lo) *. float g)

let[@inline] int g bound =
  if bound <= 0 then invalid_arg "Pcg.int: bound must be positive";
  bits g mod bound

let[@inline] exponential g rate = -.log (float_pos g) /. rate

let normal g =
  let u1 = float_pos g and u2 = float g in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
