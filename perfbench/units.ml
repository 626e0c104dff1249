(* Unit costs: direct calls into each layer's public functions, on
   inputs shaped like the workload (its graph, its Π and chunking, its
   transcript length, its seed mode and τ, its noise model).  Each
   figure is the median over a few timed batches; a call that takes
   longer than [single_s] on its own is timed once, so the grid's
   second-long set-up calls do not dominate the pass. *)

let now = Unix.gettimeofday
let single_s = 0.25

(* Seconds per call of [f], and minor words per call. *)
let per_op ?(reps = 5) ?(min_s = 0.01) f =
  let batch n =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    for _ = 1 to n do
      f ()
    done;
    let dt = now () -. t0 in
    (dt /. float_of_int n, (Gc.minor_words () -. w0) /. float_of_int n, dt)
  in
  let rec calibrate n =
    let per, words, dt = batch n in
    if dt >= min_s || n >= 1 lsl 24 then (n, per, words, dt) else calibrate (2 * n)
  in
  let n, per, words, dt = calibrate 1 in
  if n = 1 && dt >= single_s then (per, words)
  else
    let runs = List.init reps (fun _ -> batch n) in
    (Util.Stats.median (List.map (fun (p, _, _) -> p) runs), words)

let time_s f = fst (per_op f)
let time_ns f = 1e9 *. time_s f
let time_us f = 1e6 *. time_s f

(* A cheap deterministic mixer for varying call arguments. *)
let mix x = (x * 0x2545F4914F6CDD1D) lxor (x lsr 29)

(* Random transcript records with the workload's layout: chunk [c] on
   [edge] carries [events_on_link] symbols. *)
let transcript ch ~edge ~chunks =
  let tr = Coding.Transcript.create () in
  for c = 1 to chunks do
    let k = Protocol.Chunking.events_on_link ch ~chunk_index:c ~edge in
    Coding.Transcript.push_chunk tr
      ~events:(Array.init k (fun i -> Coding.Transcript.sym_bit (mix (c + i) land 1 = 1)))
  done;
  tr

(* The costliest link of the workload: the one with the most
   transmissions in the first chunk. *)
let busiest_edge ch g =
  let best = ref 0 and best_k = ref (-1) in
  for e = 0 to Topology.Graph.m g - 1 do
    let k = Protocol.Chunking.events_on_link ch ~chunk_index:1 ~edge:e in
    if k > !best_k then begin
      best := e;
      best_k := k
    end
  done;
  !best

(* The same memoising hasher the scheme builds per link and iteration. *)
let hasher seeds tr ~iter =
  let ints = Hashtbl.create 8 and prefixes = Hashtbl.create 8 in
  Coding.Meeting_points.
    {
      h_int =
        (fun ~field v ->
          match Hashtbl.find_opt ints (field, v) with
          | Some h -> h
          | None ->
              let h = Coding.Seeds.hash_int seeds ~iter ~field v in
              Hashtbl.replace ints (field, v) h;
              h);
      h_prefix =
        (fun ~field p ->
          match Hashtbl.find_opt prefixes (field, p) with
          | Some h -> h
          | None ->
              let h =
                Coding.Seeds.hash_prefix seeds ~iter ~field (Coding.Transcript.serialized tr)
                  ~bits:(Coding.Transcript.prefix_bits tr p)
              in
              Hashtbl.replace prefixes (field, p) h;
              h);
    }

let measure (w : Workload.t) =
  let g = w.Workload.graph and pi = w.Workload.pi and params = w.Workload.params in
  let m = Topology.Graph.m g and n = Topology.Graph.n g in
  let tau = params.Coding.Params.tau in
  let out = ref [] in
  let add name unit v = out := (name, unit, v) :: !out in
  (* protocol: the scheme's set-up calls, at the scheme's own arguments *)
  let ch = ref (Protocol.Chunking.make pi ~k:params.Coding.Params.k) in
  add "protocol.chunking_make_s" "s"
    (time_s (fun () -> ch := Protocol.Chunking.make pi ~k:params.Coding.Params.k));
  let ch = !ch in
  let n_real = Protocol.Chunking.n_real ch in
  let iterations =
    (params.Coding.Params.iteration_factor * n_real) + params.Coding.Params.extra_iterations
  in
  let horizon = n_real + iterations + 2 in
  let wmax = ref 0 in
  add "protocol.max_transcript_words_s" "s"
    (time_s (fun () -> wmax := Protocol.Chunking.max_transcript_words ch ~horizon));
  let wmax = !wmax in
  let inputs = Array.init n (fun i -> mix (i + 1) land 0xffff) in
  add "protocol.run_noiseless_s" "s"
    (time_s (fun () -> ignore (Protocol.Pi.run_noiseless pi ~inputs : int array)));
  (* gf / smallbias *)
  let f = Gf.Gf2k.default in
  let a = ref 0x1234567 in
  add "gf.mul_ns" "ns"
    (time_ns (fun () -> a := Gf.Gf2k.mul f (!a lor 1) 0x2bcdef0123456789));
  let gen = Smallbias.Generator.of_seed (0x5eed1L, 0x5eed2L) in
  add "smallbias.next_word_ns" "ns"
    (time_ns (fun () -> ignore (Smallbias.Generator.next_word gen : int64)));
  let seeds0 =
    Coding.Seeds.make ~stream:(Hashing.Seed_stream.uniform ~key:1L) ~tau ~wmax ~slot:0 ~slots:1
  in
  let link_words = Coding.Seeds.words_per_iteration seeds0 * iterations in
  let i = ref 0 in
  add "smallbias.seek_word_ns" "ns"
    (time_ns (fun () ->
         incr i;
         Smallbias.Generator.seek_word gen (mix !i land max_int mod max 1 link_words)));
  (* hashing: seed words in both models, then the inner-product hash
     over a full workload-length transcript of the busiest link *)
  let uniform = Hashing.Seed_stream.uniform ~key:0x5eedL in
  let biased = Hashing.Seed_stream.biased (Smallbias.Generator.of_seed (0x5eed3L, 0x5eed4L)) in
  let seed_word_ns stream =
    let j = ref 0 in
    time_ns (fun () ->
        incr j;
        ignore (Hashing.Seed_stream.word stream !j : int64))
  in
  let uniform_ns = seed_word_ns uniform and biased_ns = seed_word_ns biased in
  add "hashing.seed_word_uniform_ns" "ns" uniform_ns;
  add "hashing.seed_word_biased_ns" "ns" biased_ns;
  let stream, seed_ns =
    match params.Coding.Params.seed_mode with
    | Coding.Params.Crs -> (uniform, uniform_ns)
    | Coding.Params.Exchange -> (biased, biased_ns)
  in
  let edge = busiest_edge ch g in
  let tr = transcript ch ~edge ~chunks:n_real in
  let x = Coding.Transcript.serialized tr in
  let kib = float_of_int (Coding.Transcript.serialized_bits tr) /. 8192. in
  let ip_hash tau =
    per_op (fun () -> ignore (Hashing.Ip_hash.hash stream ~offset:0 ~tau x : int))
  in
  let s6, w6 = ip_hash 6 and s16, _ = ip_hash 16 in
  add "hashing.ip_hash_us_per_kib" "us" (1e6 *. s6 /. kib);
  add "hashing.ip_hash_words_per_kib" "words" (w6 /. kib);
  add "hashing.ip_hash_tau16_us_per_kib" "us" (1e6 *. s16 /. kib);
  (* util / coding: transcript layers at the busiest link's shape *)
  let bits = Coding.Transcript.serialized_bits tr in
  let bv = Util.Bitvec.create () in
  let k = ref 0 in
  add "util.bitvec_push_ns" "ns"
    (time_ns (fun () ->
         incr k;
         if Util.Bitvec.length bv >= bits then Util.Bitvec.truncate bv 0;
         Util.Bitvec.push bv (!k land 1 = 1)));
  let records =
    Array.init n_real (fun c ->
        Coding.Transcript.events tr (c + 1))
  in
  let tp = Coding.Transcript.create () in
  add "coding.transcript_push_chunk_ns" "ns"
    (time_ns (fun () ->
         let l = Coding.Transcript.length tp in
         if l >= n_real then Coding.Transcript.truncate tp 0;
         Coding.Transcript.push_chunk tp ~events:records.(Coding.Transcript.length tp)));
  add "coding.transcript_serialized_us" "us"
    (time_us (fun () ->
         let t = Coding.Transcript.create () in
         Array.iter (fun events -> Coding.Transcript.push_chunk t ~events) records;
         ignore (Coding.Transcript.serialized t : Util.Bitvec.t)));
  (* one meeting-points step per link endpoint, two in-sync endpoints *)
  let seeds = Coding.Seeds.make ~stream ~tau ~wmax ~slot:0 ~slots:1 in
  let tr_b = Coding.Transcript.copy tr in
  let mp_a = Coding.Meeting_points.create () and mp_b = Coding.Meeting_points.create () in
  let it = ref 0 in
  let step_s =
    time_s (fun () ->
        incr it;
        let ha = hasher seeds tr ~iter:!it and hb = hasher seeds tr_b ~iter:!it in
        let ma = Coding.Meeting_points.prepare mp_a ha ~len:n_real in
        let mb = Coding.Meeting_points.prepare mp_b hb ~len:n_real in
        ignore (Coding.Meeting_points.process mp_a ha ~len:n_real mb);
        ignore (Coding.Meeting_points.process mp_b hb ~len:n_real ma))
    /. 2.
  in
  add "coding.mp_step_us" "us" (1e6 *. step_s);
  (* a cold replay of one party's whole Π from its link transcripts *)
  let party = fst (Topology.Graph.edges g).(edge) in
  let neighbors = Topology.Graph.neighbors g party in
  let trs =
    Array.map
      (fun nb -> transcript ch ~edge:(Topology.Graph.edge_id g party nb) ~chunks:n_real)
      neighbors
  in
  let transcripts nb = trs.(Topology.Graph.neighbor_index g party nb) in
  add "coding.replayer_us_per_chunk" "us"
    (time_us (fun () ->
         let r = Coding.Replayer.create ch ~party ~input:inputs.(party) ~neighbors in
         ignore (Coding.Replayer.output r ~transcripts ~upto:n_real : int))
    /. float_of_int (max 1 n_real));
  (* transport: flag passing, the seed exchange, the sparse commit and
     one serial engine round, on the workload's graph *)
  let adversary () =
    if w.Workload.rate = 0. then Netsim.Adversary.Silent
    else Netsim.Adversary.iid (Util.Rng.create 17) ~rate:w.Workload.rate
  in
  let net = Netsim.Network.create g Netsim.Adversary.Silent in
  let tree = Topology.Graph.bfs_tree g in
  let sched = Coding.Flag_passing.compile g ~tree in
  let active = Netsim.Network.active net in
  let statuses = Array.make n true in
  add "coding.flag_passing_us" "us"
    (time_us (fun () ->
         ignore (Coding.Flag_passing.run_active net sched ~active ~statuses : bool array)));
  (* The seed exchange only where the workload runs it: on the grid one
     exchange takes seconds and no CRS workload would notice a change. *)
  let rng = Util.Rng.create 23 in
  add "coding.exchange_s" "s"
    (match params.Coding.Params.seed_mode with
    | Coding.Params.Crs -> nan
    | Coding.Params.Exchange ->
        time_s (fun () ->
            ignore
              (Coding.Randomness_exchange.run net ~rng
                : Coding.Randomness_exchange.link_outcome array)));
  let code = Ecc.Concat.create ~payload_bytes:Coding.Randomness_exchange.payload_bytes () in
  let cw =
    Ecc.Concat.encode code (String.init Coding.Randomness_exchange.payload_bytes Char.chr)
  in
  (* ~2% of the codeword erased, ~1% flipped: inside the decoding radius *)
  let received =
    Array.mapi
      (fun i b -> if i mod 53 = 0 then None else if i mod 97 = 0 then Some (not b) else Some b)
      cw
  in
  add "ecc.decode_us" "us"
    (time_us (fun () -> ignore (Ecc.Concat.decode code received : string option)));
  let dirs = 2 * m in
  let noisy = Netsim.Network.create g (adversary ()) in
  let buf = Netsim.Network.active noisy in
  let r = ref 0 in
  let sent = ref 0 in
  let round_s =
    time_s (fun () ->
        incr r;
        Netsim.Network.Active.begin_round buf;
        for d = 0 to dirs - 1 do
          if (d + !r) land 1 = 0 then Netsim.Network.Active.send buf ~dir:d (d land 2 = 0)
        done;
        sent := Netsim.Network.Active.count buf;
        Netsim.Network.commit noisy buf)
  in
  add "netsim.commit_ns_per_active_link" "ns" (1e9 *. round_s /. float_of_int (max 1 !sent));
  let lnet = Netsim.Network.create g (adversary ()) in
  let weights = Array.init n (Topology.Graph.degree g) in
  let ex = Live.Exec.create ~net:lnet ~config:Live.Config.default ~serial:true ~weights () in
  let lr = ref 0 in
  let live_ns =
    Fun.protect
      ~finally:(fun () -> Live.Exec.shutdown ex)
      (fun () ->
        time_ns (fun () ->
            incr lr;
            Live.Exec.round ex
              ~write:(fun ~shard:_ b ->
                for d = 0 to dirs - 1 do
                  if (d + !lr) land 1 = 0 then Netsim.Network.Active.send b ~dir:d true
                done)
              ~read:(fun ~shard:_ b -> Netsim.Network.Active.iter b (fun ~dir:_ _ -> ()))
              ()))
  in
  add "live.round_ns" "ns" live_ns;
  (* The computed reconciliation of the MP phase: per iteration, each of
     the 2m link endpoints hashes three integers (τ seed words each) and
     two transcript prefixes (App. A).  The prefixes average about half
     the final transcript, so the two together cost about one hash of a
     full-length transcript. *)
  let mp_model_ms_per_iter =
    float_of_int (2 * m) *. ((3. *. float_of_int tau *. seed_ns *. 1e-6) +. (1e3 *. s6))
  in
  (List.rev !out, mp_model_ms_per_iter)
