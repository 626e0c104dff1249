(* Tests for seed streams and the inner-product hash: determinism,
   linearity, and the 2^-τ collision bound of Lemma 2.3 (checked
   empirically for uniform and δ-biased seeds — the δ-biased case is the
   content of Lemma 2.6). *)

open Hashing

let mk_input rng len =
  let v = Util.Bitvec.create () in
  for _ = 1 to len do
    Util.Bitvec.push v (Util.Rng.bool rng)
  done;
  v

let test_uniform_stream_pure () =
  let s = Seed_stream.uniform ~key:42L in
  Alcotest.(check int64) "pure" (Seed_stream.word s 7) (Seed_stream.word s 7);
  Alcotest.(check bool) "varies" true (Seed_stream.word s 7 <> Seed_stream.word s 8)

let test_explicit_stream () =
  let s = Seed_stream.explicit [| 1L; 2L |] in
  Alcotest.(check int64) "word 0" 1L (Seed_stream.word s 0);
  Alcotest.(check int64) "word 1" 2L (Seed_stream.word s 1);
  Alcotest.(check int64) "out of range" 0L (Seed_stream.word s 2)

let test_biased_stream_matches_generator () =
  let g1 = Smallbias.Generator.sample (Util.Rng.create 5) in
  let f, st = Smallbias.Generator.seed g1 in
  let g2 = Smallbias.Generator.create ~f ~s:st in
  let stream = Seed_stream.biased g2 in
  let direct = Array.init 10 (fun _ -> Smallbias.Generator.next_word g1) in
  (* Access out of order to exercise seeking and caching. *)
  Alcotest.(check int64) "word 5" direct.(5) (Seed_stream.word stream 5);
  Alcotest.(check int64) "word 0" direct.(0) (Seed_stream.word stream 0);
  Alcotest.(check int64) "word 9" direct.(9) (Seed_stream.word stream 9);
  Alcotest.(check int64) "word 5 cached" direct.(5) (Seed_stream.word stream 5)

let test_hash_deterministic () =
  let rng = Util.Rng.create 1 in
  let x = mk_input rng 300 in
  let s = Seed_stream.uniform ~key:9L in
  Alcotest.(check int) "same hash" (Ip_hash.hash s ~offset:0 ~tau:10 x)
    (Ip_hash.hash s ~offset:0 ~tau:10 x)

let test_hash_equal_inputs_equal_hashes () =
  let rng = Util.Rng.create 2 in
  let x = mk_input rng 500 in
  let y = Util.Bitvec.copy x in
  let s = Seed_stream.uniform ~key:10L in
  Alcotest.(check int) "copies hash equal" (Ip_hash.hash s ~offset:3 ~tau:12 x)
    (Ip_hash.hash s ~offset:3 ~tau:12 y)

let test_hash_offset_changes_hash () =
  let rng = Util.Rng.create 3 in
  let x = mk_input rng 500 in
  let s = Seed_stream.uniform ~key:11L in
  Alcotest.(check bool) "different offsets differ" true
    (Ip_hash.hash s ~offset:0 ~tau:16 x <> Ip_hash.hash s ~offset:1000 ~tau:16 x)

let test_hash_range () =
  let rng = Util.Rng.create 4 in
  let s = Seed_stream.uniform ~key:12L in
  for _ = 1 to 50 do
    let x = mk_input rng (1 + Util.Rng.int rng 200) in
    let h = Ip_hash.hash s ~offset:0 ~tau:6 x in
    Alcotest.(check bool) "tau bits" true (h >= 0 && h < 64)
  done

let test_hash_empty_input () =
  let s = Seed_stream.uniform ~key:13L in
  Alcotest.(check int) "empty hashes to 0" 0 (Ip_hash.hash s ~offset:0 ~tau:8 (Util.Bitvec.create ()))

let check_linearity s =
  (* Inner-product hash is GF(2)-linear: h(x xor y) = h(x) xor h(y) for
     same-length inputs with the same seed. *)
  let rng = Util.Rng.create 6 in
  for _ = 1 to 20 do
    let len = 64 + Util.Rng.int rng 300 in
    let x = mk_input rng len and y = mk_input rng len in
    let xy = Util.Bitvec.create () in
    for i = 0 to len - 1 do
      Util.Bitvec.push xy (Util.Bitvec.get x i <> Util.Bitvec.get y i)
    done;
    Alcotest.(check int) "linear"
      (Ip_hash.hash s ~offset:0 ~tau:16 x lxor Ip_hash.hash s ~offset:0 ~tau:16 y)
      (Ip_hash.hash s ~offset:0 ~tau:16 xy)
  done

let test_hash_linearity () = check_linearity (Seed_stream.uniform ~key:14L)

let test_hash_linearity_biased () =
  check_linearity (Seed_stream.biased (Smallbias.Generator.sample (Util.Rng.create 14)))

let collision_rate mk_stream ~tau ~trials =
  (* Estimate Pr[h(x) = h(y)] for a fixed pair x ≠ y over random seeds. *)
  let rng = Util.Rng.create 7 in
  let x = mk_input rng 256 in
  let y = Util.Bitvec.copy x in
  (* Flip one bit so inputs differ. *)
  let y' = Util.Bitvec.create () in
  for i = 0 to Util.Bitvec.length y - 1 do
    Util.Bitvec.push y' (if i = 100 then not (Util.Bitvec.get y i) else Util.Bitvec.get y i)
  done;
  let collisions = ref 0 in
  for t = 1 to trials do
    let s = mk_stream t in
    if Ip_hash.hash s ~offset:0 ~tau x = Ip_hash.hash s ~offset:0 ~tau y' then incr collisions
  done;
  float_of_int !collisions /. float_of_int trials

let test_collision_rate_uniform () =
  (* τ = 2 ⇒ collision probability exactly 1/4 (Lemma 2.3). *)
  let p = collision_rate (fun t -> Seed_stream.uniform ~key:(Int64.of_int (t * 7919))) ~tau:2 ~trials:2000 in
  Alcotest.(check bool) (Printf.sprintf "rate near 1/4 (got %.3f)" p) true (p > 0.2 && p < 0.3)

let test_collision_rate_biased () =
  (* Lemma 2.6: with δ-biased seeds the collision rate is within δ of the
     uniform case; empirically indistinguishable from 1/4 at τ = 2. *)
  let seeds = Util.Rng.create 8 in
  let p =
    collision_rate
      (fun _ -> Seed_stream.biased (Smallbias.Generator.sample seeds))
      ~tau:2 ~trials:2000
  in
  Alcotest.(check bool) (Printf.sprintf "rate near 1/4 (got %.3f)" p) true (p > 0.2 && p < 0.3)

let test_collision_rate_drops_with_tau () =
  let p8 = collision_rate (fun t -> Seed_stream.uniform ~key:(Int64.of_int (t * 104729))) ~tau:8 ~trials:2000 in
  Alcotest.(check bool) (Printf.sprintf "tau=8 rate small (got %.4f)" p8) true (p8 < 0.02)

let test_hash_int () =
  let s = Seed_stream.uniform ~key:15L in
  Alcotest.(check int) "pure" (Ip_hash.hash_int s ~offset:0 ~tau:8 123)
    (Ip_hash.hash_int s ~offset:0 ~tau:8 123);
  Alcotest.(check bool) "values differ" true
    (Ip_hash.hash_int s ~offset:0 ~tau:16 123 <> Ip_hash.hash_int s ~offset:0 ~tau:16 124);
  Alcotest.(check int) "zero hashes to zero" 0 (Ip_hash.hash_int s ~offset:0 ~tau:8 0)

let test_words_cost () =
  Alcotest.(check int) "cost" 80 (Ip_hash.words_cost ~tau:8 ~max_input_words:10);
  Alcotest.(check int) "cost of empty input" 8 (Ip_hash.words_cost ~tau:8 ~max_input_words:0)

let prop_prefix_sensitivity =
  (* Hashes of a string and of a strict prefix may collide only with small
     probability over seeds — but note h(x) = h(x ∘ 0) structurally; we
     only test prefixes that remove a set bit. *)
  QCheck.Test.make ~name:"prefix with removed one-bit usually differs" ~count:100
    QCheck.small_nat (fun salt ->
      let x = Util.Bitvec.create () in
      for _ = 1 to 100 do
        Util.Bitvec.push x true
      done;
      let y = Util.Bitvec.copy x in
      Util.Bitvec.truncate y 99;
      let s = Seed_stream.uniform ~key:(Int64.of_int (salt + 1)) in
      (* τ = 16: collision chance 2^-16 per trial; over 100 trials the
         failure chance is ~0.2%. We allow collision (return true) but
         count mismatches dominating. *)
      Ip_hash.hash s ~offset:0 ~tau:16 x <> Ip_hash.hash s ~offset:0 ~tau:16 y
      || Ip_hash.hash s ~offset:64 ~tau:16 x <> Ip_hash.hash s ~offset:64 ~tau:16 y)

(* --- δ-biased streams: the field kernel against the word-by-word one ---

   On a δ-biased stream [Ip_hash] evaluates the hash in GF(2^62); the
   oracle is the plain inner product over [Seed_stream.word], the kernel
   the uniform and explicit streams still use. *)

let oracle_prefix stream ~offset ~tau x ~bits =
  let nw = (bits + 63) / 64 in
  let out = ref 0 in
  for j = 0 to tau - 1 do
    let acc = ref 0L in
    for w = 0 to nw - 1 do
      let xw = Util.Bitvec.word x w in
      let keep = bits - (64 * w) in
      let xw =
        if keep >= 64 then xw else Int64.logand xw (Int64.sub (Int64.shift_left 1L keep) 1L)
      in
      acc := Int64.logxor !acc (Int64.logand xw (Seed_stream.word stream (offset + (j * max 1 nw) + w)))
    done;
    out := !out lor (Util.Bitvec.parity64 !acc lsl j)
  done;
  !out

let oracle_int stream ~offset ~tau v =
  let out = ref 0 in
  for j = 0 to tau - 1 do
    let w = Int64.logand (Int64.of_int v) (Seed_stream.word stream (offset + j)) in
    out := !out lor (Util.Bitvec.parity64 w lsl j)
  done;
  !out

let special_bits = [ 0; 1; 62; 63; 64; 65; 127; 128 ]

(* A random input of [bits] bits followed by 70 one bits, so the hash
   must ignore everything past the prefix; bits 62 and 63 of every word
   are set, so the fold of x^62 and x^63 is always exercised. *)
let tail_input rng bits =
  let v = Util.Bitvec.create () in
  for i = 0 to bits + 69 do
    Util.Bitvec.push v (i >= bits || i mod 64 >= 62 || Util.Rng.bool rng)
  done;
  v

let arb_case =
  QCheck.make
    ~print:(fun (seed, tau, offset, bits) ->
      Printf.sprintf "seed=%d tau=%d offset=%d bits=%d" seed tau offset bits)
    QCheck.Gen.(
      quad (int_bound 1_000_000) (int_range 1 Ip_hash.max_tau) (int_bound (1 lsl 24))
        (oneof [ oneofl special_bits; int_bound 700 ]))

let prop_biased_prefix_matches_words =
  QCheck.Test.make ~name:"biased hash_prefix/hash = word-by-word oracle" ~count:150 arb_case
    (fun (seed, tau, offset, bits) ->
      let rng = Util.Rng.create seed in
      let s = Seed_stream.biased (Smallbias.Generator.sample rng) in
      let x = tail_input rng bits in
      let exact = Util.Bitvec.copy x in
      Util.Bitvec.truncate exact bits;
      let want = oracle_prefix s ~offset ~tau x ~bits in
      Ip_hash.hash_prefix s ~offset ~tau x ~bits = want
      && Ip_hash.hash s ~offset ~tau exact = want
      && (bits > 0 || want = 0))

let prop_biased_int_matches_words =
  QCheck.Test.make ~name:"biased hash_int = word-by-word oracle" ~count:150 arb_case
    (fun (seed, tau, offset, bits) ->
      let rng = Util.Rng.create seed in
      let s = Seed_stream.biased (Smallbias.Generator.sample rng) in
      List.for_all
        (fun v -> Ip_hash.hash_int s ~offset ~tau v = oracle_int s ~offset ~tau v)
        [ max_int; 0; 1; bits; Int64.to_int (Util.Rng.int64 rng) land max_int ])

let prop_biased_unit_matches_words =
  QCheck.Test.make ~name:"biased hash_unit = hash of e_pos" ~count:100 arb_case
    (fun (seed, tau, offset, bits) ->
      let bits = max 1 bits in
      let rng = Util.Rng.create seed in
      let s = Seed_stream.biased (Smallbias.Generator.sample rng) in
      let pos =
        match seed mod 3 with
        | 0 when bits > 62 -> 62
        | 1 when bits > 63 -> 63
        | _ -> Util.Rng.int rng bits
      in
      let e = Util.Bitvec.create () in
      for i = 0 to bits - 1 do
        Util.Bitvec.push e (i = pos)
      done;
      Ip_hash.hash_unit s ~offset ~tau ~bits ~pos = oracle_prefix s ~offset ~tau e ~bits)

let () =
  Alcotest.run "hashing"
    [
      ( "seed_stream",
        [
          Alcotest.test_case "uniform pure" `Quick test_uniform_stream_pure;
          Alcotest.test_case "explicit" `Quick test_explicit_stream;
          Alcotest.test_case "biased matches generator" `Quick test_biased_stream_matches_generator;
        ] );
      ( "ip_hash",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "equal inputs equal hashes" `Quick test_hash_equal_inputs_equal_hashes;
          Alcotest.test_case "offset changes hash" `Quick test_hash_offset_changes_hash;
          Alcotest.test_case "range" `Quick test_hash_range;
          Alcotest.test_case "empty input" `Quick test_hash_empty_input;
          Alcotest.test_case "linearity" `Quick test_hash_linearity;
          Alcotest.test_case "linearity biased" `Quick test_hash_linearity_biased;
          Alcotest.test_case "collision rate uniform" `Slow test_collision_rate_uniform;
          Alcotest.test_case "collision rate biased" `Slow test_collision_rate_biased;
          Alcotest.test_case "collision rate drops with tau" `Slow test_collision_rate_drops_with_tau;
          Alcotest.test_case "hash_int" `Quick test_hash_int;
          Alcotest.test_case "words_cost" `Quick test_words_cost;
          QCheck_alcotest.to_alcotest prop_prefix_sensitivity;
        ] );
      ( "ip_biased",
        [
          QCheck_alcotest.to_alcotest prop_biased_prefix_matches_words;
          QCheck_alcotest.to_alcotest prop_biased_int_matches_words;
          QCheck_alcotest.to_alcotest prop_biased_unit_matches_words;
        ] );
    ]
