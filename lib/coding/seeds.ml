type t = {
  stream : Hashing.Seed_stream.t;
  tau : int;
  wmax : int;
  slot : int;
  slots : int;
  block : int; (* words per (iteration, link slot) *)
}

let int_fields = 3
let prefix_fields = 2

let make ~stream ~tau ~wmax ~slot ~slots =
  assert (tau > 0 && wmax > 0 && slot >= 0 && slot < slots);
  { stream; tau; wmax; slot; slots; block = (int_fields * tau) + (prefix_fields * tau * wmax) }

let words_per_iteration t = t.block

let base t ~iter = ((iter * t.slots) + t.slot) * t.block

let hash_int t ~iter ~field v =
  assert (field >= 0 && field < int_fields);
  Hashing.Ip_hash.hash_int t.stream ~offset:(base t ~iter + (field * t.tau)) ~tau:t.tau v

let prefix_offset t ~iter ~field = base t ~iter + (int_fields * t.tau) + (field * t.tau * t.wmax)

let hash_prefix t ~iter ~field x ~bits =
  assert (field >= 0 && field < prefix_fields);
  assert (bits <= 64 * t.wmax);
  Hashing.Ip_hash.hash_prefix t.stream ~offset:(prefix_offset t ~iter ~field) ~tau:t.tau x ~bits

let prefix_bit_sensitivity t ~iter ~field ~total_bits ~pos =
  assert (field >= 0 && field < prefix_fields);
  assert (pos >= 0 && pos < total_bits);
  Hashing.Ip_hash.hash_unit t.stream ~offset:(prefix_offset t ~iter ~field) ~tau:t.tau
    ~bits:total_bits ~pos
