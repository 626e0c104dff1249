(** Long random strings for seeding hash functions, addressed by 64-bit
    word index.

    Three flavours, matching the three randomness models of the paper:
    - {!uniform}: a lazily-materialised uniform string keyed by 64 bits —
      the common random string (CRS) of Algorithm 1 and the pre-shared
      randomness of Algorithm C.  Word [i] is a pure function of
      (key, i), so two parties holding the same key hold the same string
      without storing it.
    - {!biased}: a δ-biased string expanded from a 128-bit seed
      (Algorithm A / B after the randomness exchange of Algorithm 5).
    - {!explicit}: a concrete bit string (used in tests to realise
      genuinely uniform shared randomness, and to model a corrupted
      exchange where the two endpoints hold different strings). *)

type t = private
  | Uniform of int64
  | Biased of Smallbias.Generator.t
  | Explicit of int64 array
(** Read-only so that {!Ip_hash} can dispatch on the stream kind once per
    call: a δ-biased stream is hashed in the field (see {!Ip_hash}), the
    other two word by word. *)

val uniform : key:int64 -> t
val biased : Smallbias.Generator.t -> t
val explicit : int64 array -> t
(** Out-of-range words read as zero. *)

val word : t -> int -> int64
(** [word t i] is the [i]-th 64-bit word of the string.  For a δ-biased
    stream, reading the word after the last one read is one byte-table
    step of the generator (tens of ns); any other index costs a
    {!Smallbias.Generator.seek_word} first (one multiplication per
    nonzero base-16 digit of [i] plus a window rebuild, a few µs).  The
    hash does not read δ-biased streams through [word]. *)
