module Gen = Smallbias.Generator

let max_tau = 30

(* --- word-by-word kernels: uniform and explicit streams --- *)

(* The tail mask is built in each kernel, not passed in: as an argument
   the int64 would be boxed on every call. *)
let tail_mask bits =
  let tail = bits mod 64 in
  if tail = 0 then -1L else Int64.sub (Int64.shift_left 1L tail) 1L
[@@inline]

let words_prefix stream ~offset ~tau x ~bits =
  let nw = (bits + 63) / 64 in
  let tail_mask = tail_mask bits in
  let out = ref 0 in
  for j = 0 to tau - 1 do
    let acc = ref 0L in
    let base = offset + (j * max 1 nw) in
    for w = 0 to nw - 1 do
      let xw = Util.Bitvec.word x w in
      let xw = if w = nw - 1 then Int64.logand xw tail_mask else xw in
      acc := Int64.logxor !acc (Int64.logand xw (Seed_stream.word stream (base + w)))
    done;
    if Util.Bitvec.parity64 !acc = 1 then out := !out lor (1 lsl j)
  done;
  !out

let words_int stream ~offset ~tau v =
  let x = Int64.of_int v in
  let out = ref 0 in
  for j = 0 to tau - 1 do
    if Util.Bitvec.parity64 (Int64.logand x (Seed_stream.word stream (offset + j))) = 1 then
      out := !out lor (1 lsl j)
  done;
  !out

let words_unit stream ~offset ~tau ~stride ~pos =
  let out = ref 0 in
  for j = 0 to tau - 1 do
    let w = Seed_stream.word stream (offset + (j * stride) + (pos / 64)) in
    if Int64.logand (Int64.shift_right_logical w (pos mod 64)) 1L = 1L then
      out := !out lor (1 lsl j)
  done;
  !out

(* --- field kernels: δ-biased streams ---

   Stream bit b is ⟨x^b mod f, s⟩, and ⟨·, s⟩ is linear, so row j of a
   hash whose input polynomial is P(x) = Σ x_t·x^t and whose slab starts
   at word [offset + j·stride] is ⟨x^(64·(offset + j·stride))·(P mod f), s⟩
   (DESIGN.md §2a).  [rows] evaluates the τ rows from P mod f: one jump
   to the first slab, then one multiply by x^(64·stride) per row. *)

let rows g ~offset ~tau ~stride p =
  if p = 0 then 0
  else begin
    let f = Gen.field g in
    let step = if stride = 1 then 0 else Gen.word_power g stride in
    let e = ref (Gf.Gf2k.mul f (Gen.word_power g offset) p) in
    let out = ref (Gen.dot g !e) in
    for j = 1 to tau - 1 do
      e := if stride = 1 then Gen.mul_x64 g !e else Gf.Gf2k.mul f !e step;
      out := !out lor (Gen.dot g !e lsl j)
    done;
    !out
  end

(* P mod f of the input's first [bits] bits, Horner from the top word
   (the only one the tail mask touches). *)
let poly_mod g x ~bits =
  let nw = (bits + 63) / 64 in
  if nw = 0 then 0
  else begin
    let f = Gen.field g in
    let r = ref (Gf.Gf2k.reduce64 f (Int64.logand (Util.Bitvec.word x (nw - 1)) (tail_mask bits))) in
    for w = nw - 2 downto 0 do
      r := Gen.mul_x64 g !r lxor Gf.Gf2k.reduce64 f (Util.Bitvec.word x w)
    done;
    !r
  end

let hash_prefix stream ~offset ~tau x ~bits =
  assert (tau > 0 && tau <= max_tau);
  assert (bits >= 0 && bits <= Util.Bitvec.length x);
  match stream with
  | Seed_stream.Biased g -> rows g ~offset ~tau ~stride:(max 1 ((bits + 63) / 64)) (poly_mod g x ~bits)
  | Seed_stream.Uniform _ | Seed_stream.Explicit _ -> words_prefix stream ~offset ~tau x ~bits

let hash stream ~offset ~tau x = hash_prefix stream ~offset ~tau x ~bits:(Util.Bitvec.length x)

let words_cost ~tau ~max_input_words = tau * max 1 max_input_words

let hash_int stream ~offset ~tau v =
  assert (tau > 0 && tau <= max_tau);
  match stream with
  | Seed_stream.Biased g ->
      rows g ~offset ~tau ~stride:1 (Gf.Gf2k.reduce64 (Gen.field g) (Int64.of_int v))
  | Seed_stream.Uniform _ | Seed_stream.Explicit _ -> words_int stream ~offset ~tau v

let hash_unit stream ~offset ~tau ~bits ~pos =
  assert (tau > 0 && tau <= max_tau);
  assert (pos >= 0 && pos < bits);
  let stride = max 1 ((bits + 63) / 64) in
  match stream with
  | Seed_stream.Biased g ->
      let p = Gf.Gf2k.reduce64 (Gen.field g) (Int64.shift_left 1L (pos mod 64)) in
      rows g ~offset:(offset + (pos / 64)) ~tau ~stride p
  | Seed_stream.Uniform _ | Seed_stream.Explicit _ -> words_unit stream ~offset ~tau ~stride ~pos
