open Gf

(* The output sequence b_i = ⟨x^i mod f, s⟩ is a linear recurring sequence
   with characteristic polynomial f: for n ≥ 62,
       b_n = parity(f_low & (b_{n-62} … b_{n-1})).
   The generator therefore keeps a 62-bit *window* of upcoming output bits
   as its hot state; producing a 64-bit word and the next window is a
   GF(2)-linear map of the window, which we tabulate byte-wise: 8 table
   lookups and a handful of xors per word.

   The field side serves random access and the hash kernel: the field
   point of stream word i is x^(64·i) mod f, reached from two immutable
   tables built in [create] (so a generator can be read from any domain
   without a lazily filled global cache):
   - [x64]: entry 256·pos + b is (b·x^(8·pos))·x^64 mod f, so p·x^64 is
     8 lookups;
   - [jump]: entry 16·l + d is x^(64·d·16^l) mod f, so x^(64·i) is one
     multiply per nonzero base-16 digit of i. *)

type t = {
  field : Gf2k.field;
  s : int;
  x64 : int array;
  jump : int array;
  mutable window : int; (* bits 64·widx .. 64·widx+61 of the stream *)
  mutable widx : int;
  (* Byte-indexed tables: entry pos*256+byte gives, for a window whose
     byte [pos] is [byte] (rest zero), the produced word (lo/hi 32-bit
     halves) and the successor window. *)
  mutable tbl_lo : int array;
  mutable tbl_hi : int array;
  mutable tbl_w : int array;
}

let seed_bits = 128
let state_mask = (1 lsl 62) - 1
let jump_levels = 16 (* base-16 digits of a non-negative native int *)

(* The first 62 upcoming bits from a field state p: ⟨p·x^j, s⟩, j < 62. *)
let window_of_state field s p0 =
  let w = ref 0 in
  let p = ref p0 in
  for j = 0 to 61 do
    w := !w lor (Gf2k.parity_int (!p land s) lsl j);
    p := Gf2k.step field !p
  done;
  !w

(* Byte tables of the linear map p ↦ p·x^64, from the basis
   basis.(k) = x^(64+k) stepped up from x^63. *)
let x64_table field =
  let basis = Array.make 64 0 in
  let p = ref (Gf2k.reduce64 field Int64.min_int) in
  for k = 0 to 63 do
    p := Gf2k.step field !p;
    basis.(k) <- !p
  done;
  let tbl = Array.make (8 * 256) 0 in
  for pos = 0 to 7 do
    for byte = 1 to 255 do
      let low = byte land -byte in
      let k = (8 * pos) + Gf2k.popcount_int (low - 1) in
      tbl.((pos * 256) + byte) <- tbl.((pos * 256) + (byte lxor low)) lxor basis.(k)
    done
  done;
  tbl

let mul_x64_with tbl p =
  Array.unsafe_get tbl (p land 0xFF)
  lxor Array.unsafe_get tbl (256 + ((p lsr 8) land 0xFF))
  lxor Array.unsafe_get tbl (512 + ((p lsr 16) land 0xFF))
  lxor Array.unsafe_get tbl (768 + ((p lsr 24) land 0xFF))
  lxor Array.unsafe_get tbl (1024 + ((p lsr 32) land 0xFF))
  lxor Array.unsafe_get tbl (1280 + ((p lsr 40) land 0xFF))
  lxor Array.unsafe_get tbl (1536 + ((p lsr 48) land 0xFF))
  lxor Array.unsafe_get tbl (1792 + ((p lsr 56) land 0xFF))

let jump_table field x64 =
  let jump = Array.make (16 * jump_levels) 1 in
  let base = ref (mul_x64_with x64 1) (* x^(64·16^l) *) in
  for l = 0 to jump_levels - 1 do
    for d = 1 to 15 do
      jump.((16 * l) + d) <- Gf2k.mul field jump.((16 * l) + d - 1) !base
    done;
    base := Gf2k.mul field jump.((16 * l) + 15) !base
  done;
  jump

let create ~f ~s =
  let s = s land state_mask in
  if s = 0 then invalid_arg "Generator.create: zero start state";
  let field = Gf2k.make ~modulus_low:f in
  let x64 = x64_table field in
  {
    field;
    s;
    x64;
    jump = jump_table field x64;
    window = window_of_state field s 1;
    widx = 0;
    tbl_lo = [||];
    tbl_hi = [||];
    tbl_w = [||];
  }

let sample rng =
  let f = Gf2k.random_irreducible rng in
  let rec nonzero () =
    let s = Int64.to_int (Util.Rng.int64 rng) land state_mask in
    if s = 0 then nonzero () else s
  in
  create ~f ~s:(nonzero ())

let of_seed (a, b) =
  (* Deterministic irreducible search: hash the candidate space starting
     from [a] until Rabin's test passes.  Both endpoints of a link run this
     on identical bits, so they derive identical generators. *)
  let rec find i =
    let cand = (Int64.to_int (Util.Rng.at ~seed:a i) land state_mask) lor 1 in
    if Gf2k.is_irreducible cand then cand else find (i + 1)
  in
  let f = find 0 in
  let rec nonzero i =
    let s = Int64.to_int (Util.Rng.at ~seed:b i) land state_mask in
    if s = 0 then nonzero (i + 1) else s
  in
  create ~f ~s:(nonzero 0)

let seed t = (Gf2k.modulus_low t.field, t.s)

(* From window w, produce (word_lo, word_hi, next_window) by running the
   recurrence 64 steps — the reference implementation the tables encode. *)
let extend_window f_low w0 =
  let lo = ref (w0 land 0xFFFFFFFF) in
  let hi = ref ((w0 lsr 32) land 0x3FFFFFFF) in
  let w = ref w0 in
  for n = 62 to 125 do
    let b = Gf2k.parity_int (!w land f_low) in
    if n < 64 && b = 1 then hi := !hi lor (1 lsl (n - 32));
    w := (!w lsr 1) lor (b lsl 61)
  done;
  (!lo, !hi, !w)

let ensure_tables t =
  if Array.length t.tbl_lo = 0 then begin
    let f_low = Gf2k.modulus_low t.field in
    (* Bit basis first. *)
    let b_lo = Array.make 62 0 and b_hi = Array.make 62 0 and b_w = Array.make 62 0 in
    for k = 0 to 61 do
      let lo, hi, w = extend_window f_low (1 lsl k) in
      b_lo.(k) <- lo;
      b_hi.(k) <- hi;
      b_w.(k) <- w
    done;
    let tbl_lo = Array.make (8 * 256) 0
    and tbl_hi = Array.make (8 * 256) 0
    and tbl_w = Array.make (8 * 256) 0 in
    for pos = 0 to 7 do
      for byte = 0 to 255 do
        let lo = ref 0 and hi = ref 0 and w = ref 0 in
        for bit = 0 to 7 do
          let k = (8 * pos) + bit in
          if k < 62 && (byte lsr bit) land 1 = 1 then begin
            lo := !lo lxor b_lo.(k);
            hi := !hi lxor b_hi.(k);
            w := !w lxor b_w.(k)
          end
        done;
        let idx = (pos * 256) + byte in
        tbl_lo.(idx) <- !lo;
        tbl_hi.(idx) <- !hi;
        tbl_w.(idx) <- !w
      done
    done;
    t.tbl_lo <- tbl_lo;
    t.tbl_hi <- tbl_hi;
    t.tbl_w <- tbl_w
  end

let next_word t =
  ensure_tables t;
  let w = t.window in
  let lo = ref 0 and hi = ref 0 and nw = ref 0 in
  for pos = 0 to 7 do
    let idx = (pos * 256) + ((w lsr (8 * pos)) land 0xFF) in
    lo := !lo lxor Array.unsafe_get t.tbl_lo idx;
    hi := !hi lxor Array.unsafe_get t.tbl_hi idx;
    nw := !nw lxor Array.unsafe_get t.tbl_w idx
  done;
  t.window <- !nw;
  t.widx <- t.widx + 1;
  Int64.logor (Int64.of_int !lo) (Int64.shift_left (Int64.of_int !hi) 32)

let word_index t = t.widx
let field t = t.field
let dot t p = Gf2k.parity_int (p land t.s)
let mul_x64 t p = mul_x64_with t.x64 p

let word_power t i =
  assert (i >= 0);
  let acc = ref 1 and i = ref i and row = ref 0 in
  while !i <> 0 do
    let d = !i land 15 in
    if d <> 0 then begin
      let c = Array.unsafe_get t.jump (!row + d) in
      acc := if !acc = 1 then c else Gf2k.mul t.field !acc c
    end;
    i := !i lsr 4;
    row := !row + 16
  done;
  !acc

let seek_word t i =
  assert (i >= 0);
  if i <> t.widx then begin
    t.window <- window_of_state t.field t.s (word_power t i);
    t.widx <- i
  end

let bit_at t i =
  let r = Gf2k.reduce64 t.field (Int64.shift_left 1L (i land 63)) in
  dot t (Gf2k.mul t.field (word_power t (i lsr 6)) r) = 1
