type t =
  | Uniform of int64
  | Biased of Smallbias.Generator.t
  | Explicit of int64 array

let uniform ~key = Uniform key
let biased gen = Biased gen
let explicit words = Explicit words

let word t i =
  match t with
  | Uniform key -> Util.Rng.at ~seed:key i
  | Explicit a -> if i < Array.length a then a.(i) else 0L
  | Biased gen ->
      (* Sequential reads advance the cursor for free; a jump in either
         direction is a table-driven seek. *)
      if Smallbias.Generator.word_index gen <> i then Smallbias.Generator.seek_word gen i;
      Smallbias.Generator.next_word gen
