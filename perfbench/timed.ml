(* The timed pass: set-up, then a closed loop of trials for a fixed
   wall-clock window, with tracing, metrics and Runtime_events all off.

   Closed loop: one worker on [Runner.Pool] (see {!Workload.names} for
   why one) starts its next trial as soon as the previous one returns.
   The loop itself serves any job count — the traced pass runs it with
   two: trials are issued in pool batches (one helper-domain spawn per
   batch), and a trial claimed after the deadline is skipped, so the
   attempted trials are always a prefix of the index space.  The first
   [w.exact_trials] are always attempted: the Exact metrics and peak
   RSS are taken over exactly that prefix and so depend on the seed
   alone, not on how many trials the window held. *)

let now = Unix.gettimeofday

(* A trial whose input construction itself raised: failed, no timings. *)
let lost_sample why =
  {
    Workload.ok = false;
    why;
    wall_s = 0.;
    t_call = 0.;
    minor_words = 0.;
    major_words = 0.;
    cc = 0;
    cc_pi = 0;
    rounds = 0;
    iterations = 0;
    chunks_total = 0;
    chunks_rewound = 0;
  }

(* Run trials [0, min_trials) — or, with [deadline], from 0 until the
   deadline passes (but at least [min_trials]) — and return the results
   in trial order together with the loop's wall time.  [trial] maps a
   trial input to a result and [lost] stands in for a trial whose input
   construction raised, so the traced pass can reuse the loop with
   instrumented trials; [after_batch done_] runs on the calling domain
   after each pool batch, [done_] trials into the loop. *)
let loop ?deadline ?(jobs = 1) ?(after_batch = fun (_ : int) -> ()) ~lost ~min_trials ~batch
    ~trial (w : Workload.t) ~seed =
  let acc = ref [] in
  let base = ref 0 in
  let go () =
    match deadline with None -> !base < min_trials | Some d -> !base < min_trials || now () < d
  in
  let t0 = now () in
  while go () do
    let lo = !base in
    let hi = match deadline with None -> min min_trials (lo + batch) | Some _ -> lo + batch in
    acc :=
      Runner.Pool.fold ~jobs ~batch:(hi - lo) ~trials:(hi - lo) ~init:!acc
        ~merge:(fun acc t o ->
          match o with
          | Runner.Pool.Value None -> acc
          | Runner.Pool.Value (Some s) -> s :: acc
          | Runner.Pool.Raised e -> lost ("raised: " ^ e.Runner.Pool.message) :: acc
          | Runner.Pool.Timed_out _ ->
              lost (Printf.sprintf "trial %d timed out" (lo + t)) :: acc)
        (fun t ->
          let t = lo + t in
          match deadline with
          | Some d when t >= min_trials && now () >= d -> None
          | _ -> Some (trial (Workload.trial_input w ~seed t)))
    ;
    after_batch hi;
    base := hi
  done;
  (Array.of_list (List.rev !acc), now () -. t0)

(* ---------- set-up ---------- *)

(* One set-up: building the workload (graph, Π, parameters) and one
   untimed warm-up trial, so that work moved into a cross-run cache or
   lazy initialisation shows here instead of vanishing.  The warm-up
   trial is the same for every seed (trial -1 of seed 0, outside the
   measured range), so that set-up time does not vary with how much
   noise a seed's warm-up happened to draw; it goes through the same
   gate as every trial. *)
let setup_once ~toy name =
  let t0 = now () in
  let w = Workload.create ~toy name in
  let warm = Workload.run_trial w (Workload.trial_input w ~seed:0 (-1)) in
  (w, warm, now () -. t0)

type setup = { w : Workload.t; warm : Workload.sample list; setup_s : float list }

(* A round of [w.setup_reps] set-ups, a count fixed per workload (about
   half a second of set-up on crs_k5 and grid256) so that the work done
   before the Exact prefix, and with it the peak RSS read after it,
   does not depend on how fast the box ran.  The box the baseline was
   taken on alternates between fast and slow phases lasting seconds, so
   the timed pass runs one round before its window and one after it
   ({!extend}): the median then samples two moments half a minute apart
   instead of one. *)
let round ~toy name ~reps = List.init reps (fun _ -> setup_once ~toy name)
let of_runs runs = (List.map (fun (_, s, _) -> s) runs, List.map (fun (_, _, dt) -> dt) runs)

let setup ?(toy = false) name =
  let runs = round ~toy name ~reps:(Workload.create ~toy name).Workload.setup_reps in
  let w, _, _ = List.hd runs in
  let warm, setup_s = of_runs runs in
  { w; warm; setup_s }

let extend ?(toy = false) s =
  let warm, setup_s = of_runs (round ~toy s.w.Workload.name ~reps:s.w.Workload.setup_reps) in
  { s with warm = s.warm @ warm; setup_s = s.setup_s @ setup_s }

(* Trials per pool batch: enough per domain that the batch-end join is
   a small share of a batch. *)
let batch_of ~jobs = if jobs > 1 then 8 * jobs else 1

type run = { samples : Workload.sample array; wall_s : float; prefix_rss_mb : float }

let rss_mb () = float_of_int (Util.Mem.peak_rss_kb ()) /. 1024.

let run ~seconds (s : setup) ~seed =
  let w = s.w in
  let prefix_rss_mb = ref nan in
  let samples, wall_s =
    loop ~deadline:(now () +. seconds) ~min_trials:w.Workload.exact_trials ~batch:1
      ~after_batch:(fun done_ ->
        if done_ = w.Workload.exact_trials then prefix_rss_mb := rss_mb ())
      ~lost:lost_sample ~trial:(Workload.run_trial w) w ~seed
  in
  { samples; wall_s; prefix_rss_mb = !prefix_rss_mb }

(* ---------- end-to-end metrics ---------- *)

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0. a
let fsum f a = sum (fun x -> float_of_int (f x)) a
let prefix n a = Array.sub a 0 (min n (Array.length a))

(* Exact per seed: computed over the fixed trial prefix only. *)
let exact_metrics (w : Workload.t) samples =
  let p = prefix w.Workload.exact_trials samples in
  let n = float_of_int (max 1 (Array.length p)) in
  [
    ( "cc_blowup",
      "x",
      sum (fun s -> float_of_int s.Workload.cc /. float_of_int (max 1 s.Workload.cc_pi)) p /. n );
    ("iterations_per_run", "count", fsum (fun s -> s.Workload.iterations) p /. n);
    ( "minor_words_per_iter",
      "words",
      sum (fun s -> s.Workload.minor_words) p
      /. Float.max 1. (fsum (fun s -> s.Workload.iterations) p) );
  ]

let end_to_end (s : setup) r =
  let w = s.w and samples = r.samples and wall = r.wall_s in
  let ok = Array.of_list (List.filter (fun x -> x.Workload.ok) (Array.to_list samples)) in
  let walls = Array.to_list (Array.map (fun x -> x.Workload.wall_s) ok) in
  (* Rates are ratios of sums over the window, not medians of per-trial
     rates: the box alternates between fast and slow phases lasting
     seconds, and a median jumps between the two when a run spends about
     half its trials in each, where a sum moves smoothly. *)
  let iters = fsum (fun x -> x.Workload.iterations) ok in
  let twall = sum (fun x -> x.Workload.wall_s) ok in
  let attempted = Array.length samples in
  [
    ("trials_per_s", "1/s", float_of_int attempted /. wall);
    ("run_s_p50", "s", Util.Stats.percentile 0.5 walls);
    ("run_s_p90", "s", Util.Stats.percentile 0.9 walls);
    ("iter_ms", "ms", 1000. *. twall /. Float.max 1. iters);
    ("rounds_per_s", "1/s", fsum (fun x -> x.Workload.rounds) ok /. twall);
    ( "major_words_per_iter",
      "words",
      sum (fun x -> x.Workload.major_words) ok /. Float.max 1. iters );
    ("peak_rss_mb", "MB", r.prefix_rss_mb);
    ("setup_s", "s", Util.Stats.median s.setup_s);
    ("success_rate", "frac", float_of_int (Array.length ok) /. float_of_int (max 1 attempted));
  ]
  @ exact_metrics w samples
