(** The inner-product hash function of Definition 2.2.

    For input x of L bits and seed s of τ·L bits,
    h(x, s) = ⟨x, s[1..L]⟩ ∘ … ∘ ⟨x, s[(τ−1)L+1..τL]⟩.

    Output bit j is the GF(2) inner product of x with the j-th seed slab.
    Seeds are drawn from a {!Seed_stream.t} starting at a caller-chosen
    word offset; slabs are word-aligned (each output bit consumes
    [Bitvec.words x] seed words), so the seed cost of one hash is
    [tau * words] words.  For a uniform seed the collision probability of
    two distinct inputs is exactly 2^{-τ} (Lemma 2.3).

    Cost.  On uniform and explicit streams every call reads its [tau *
    words] seed words one by one.  On a δ-biased stream the hash is
    evaluated in GF(2^62) instead (DESIGN.md §2a): one pass over the
    input's words (eight table lookups each) reduces it to a field
    element, after which each of the τ output bits costs one field
    multiplication — the cost no longer grows with τ × words, and the
    generator's cursor is not moved. *)

val max_tau : int
(** Outputs are packed in an [int]; τ ≤ 30. *)

val hash : Seed_stream.t -> offset:int -> tau:int -> Util.Bitvec.t -> int
(** [hash s ~offset ~tau x]: τ-bit hash of [x] using seed words
    [offset, offset + tau * max 1 (words x)). *)

val hash_prefix : Seed_stream.t -> offset:int -> tau:int -> Util.Bitvec.t -> bits:int -> int
(** Hash of the first [bits] bits of the vector (a zero-copy prefix view);
    [hash_prefix s ~offset ~tau x ~bits:(Bitvec.length x) = hash s ~offset ~tau x]. *)

val words_cost : tau:int -> max_input_words:int -> int
(** Seed words consumed by one hash of an input of at most
    [max_input_words] words — used to lay out non-overlapping seed
    segments for the different hashes of an iteration. *)

val hash_int : Seed_stream.t -> offset:int -> tau:int -> int -> int
(** Hash of a single 63-bit non-negative integer (used for the
    meeting-points counters and positions); consumes [tau] seed words. *)

val hash_unit : Seed_stream.t -> offset:int -> tau:int -> bits:int -> pos:int -> int
(** [hash_unit s ~offset ~tau ~bits ~pos] is the hash of the unit vector
    e_pos taken as a [bits]-bit input ([0 <= pos < bits]), i.e.
    [hash_prefix s ~offset ~tau x ~bits] for an [x] whose only set bit
    among the first [bits] is [pos].  By linearity it is the mask of
    output bits that flip when input bit [pos] flips. *)
