(* Elements occupy bits 0..61 of a native int, so every operation below is
   unboxed.  The modulus x^62 + low(x) keeps its top term implicit.

   [red.(t)] is t(x)·x^62 mod f for a 4-bit t (bits standing for
   x^62..x^65): the reduction of whatever a 4-bit left shift pushes past
   bit 61, and, for t < 4, the fold of a 64-bit word's bits 62 and 63. *)

type field = { m_low : int; red : int array }

let degree = 62
let mask = (1 lsl 62) - 1
let modulus_low f = f.m_low

(* a·x, branch-free: bit 61 shifts into x^62 ≡ low(x). *)
let step_low m_low a = ((a lsl 1) land mask) lxor (m_low land -((a lsr 61) land 1))
let step f a = step_low f.m_low a

let field_of_low m_low =
  let x62 = m_low in
  let x63 = step_low m_low x62 in
  let x64 = step_low m_low x63 in
  let x65 = step_low m_low x64 in
  let red =
    Array.init 16 (fun t ->
        let pick k v = if (t lsr k) land 1 = 1 then v else 0 in
        pick 0 x62 lxor pick 1 x63 lxor pick 2 x64 lxor pick 3 x65)
  in
  { m_low; red }

(* 4-bit-window multiply, most significant nibble of [b] first:
   acc ← acc·x^4 + a·nibble.  The shift's overflow nibble is reduced by
   one [red] lookup and a·nibble is an xor of the masked multiples
   a, ax, ax², ax³, so the loop has no data-dependent branch. *)
let mul f a b =
  let a = a land mask and b = b land mask in
  let a2 = step f a in
  let a4 = step f a2 in
  let a8 = step f a4 in
  let red = f.red in
  let acc = ref 0 in
  for k = 15 downto 0 do
    let nib = b lsr (4 * k) in
    let c = !acc in
    acc :=
      ((c lsl 4) land mask)
      lxor Array.unsafe_get red (c lsr 58)
      lxor (a land -(nib land 1))
      lxor (a2 land -((nib lsr 1) land 1))
      lxor (a4 land -((nib lsr 2) land 1))
      lxor (a8 land -((nib lsr 3) land 1))
  done;
  !acc

let[@inline] reduce64 f w =
  (Int64.to_int w land mask) lxor Array.unsafe_get f.red (Int64.to_int (Int64.shift_right_logical w 62))

let pow f a n =
  assert (n >= 0);
  let rec go acc base n =
    if n = 0 then acc
    else
      let acc = if n land 1 = 1 then mul f acc base else acc in
      go acc (mul f base base) (n lsr 1)
  in
  go 1 a n

let pow_x f i = pow f 2 i

(* --- raw polynomial arithmetic over GF(2), cold path (Rabin test).
       Polynomials of degree <= 62 as bit patterns; bit 62 usable since we
       only mask and xor. --- *)

let poly_degree p =
  if p = 0 then -1
  else begin
    let rec go i = if (p lsr i) land 1 = 1 then i else go (i - 1) in
    go 62
  end

let poly_mod a b =
  let db = poly_degree b in
  let a = ref a in
  while poly_degree !a >= db do
    a := !a lxor (b lsl (poly_degree !a - db))
  done;
  !a

let rec poly_gcd a b = if b = 0 then a else poly_gcd b (poly_mod a b)

let is_irreducible m_low =
  m_low land 1 = 1
  && m_low land lnot mask = 0
  &&
  let f = field_of_low m_low in
  let full = (1 lsl 62) lor m_low in
  let frob j =
    let t = ref 2 in
    for _ = 1 to j do
      t := mul f !t !t
    done;
    !t
  in
  frob 62 = 2 && poly_gcd (frob 31 lxor 2) full = 1 && poly_gcd (frob 1 lxor 2) full = 1

let make ~modulus_low =
  if not (is_irreducible modulus_low) then invalid_arg "Gf2k.make: reducible modulus";
  field_of_low modulus_low

let random_irreducible rng =
  let rec go () =
    let cand = (Int64.to_int (Util.Rng.int64 rng) land mask) lor 1 in
    if is_irreducible cand then cand else go ()
  in
  go ()

let default = field_of_low (random_irreducible (Util.Rng.create 0x5eed))

let popcount_int x =
  (* SWAR popcount; valid for non-negative inputs (≤ 62 bits). *)
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (x * 0x0101_0101_0101_0101) lsr 56 land 0x7F

let parity_int x = popcount_int x land 1
