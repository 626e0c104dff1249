(* The traced pass: where a trial's wall time, allocation and noise
   budget went, phase by phase, read from outside the program.

   It runs the workload's first [traced_trials] trials three times:

   A. untraced, at [traced_jobs] — the reference for the tracing
      overhead and for [runner.busy_frac];
   B. traced, at [traced_jobs] — a profiled [Trace.Sink] (span timestamps and per-span Gc
      words, folded by [Obsv.Profile]), a [Metrics.Registry] and stdlib
      [Runtime_events] for GC collections and pauses;
   C. registry only, at jobs = 1 — the determinism self-check: C's
      Exact registry snapshot must equal B's, and C's communication and
      iteration counts must equal A's, so a seed names one execution at
      any job count.

   None of this instrumentation is ever switched on in the timed pass. *)

(* ---------- GC through Runtime_events ---------- *)

(* Minor collections are stop-the-world in OCaml 5, so every domain
   books each one; the calling domain (ring 0) is always a worker, hence
   counting its ring counts each collection once; a major cycle ends in
   one [EV_MAJOR_GC_CYCLE_DOMAINS] per domain.  Pauses are taken on
   every ring: a worker's pause is what its trial waits. *)
type gc = {
  mutable minors : int;
  mutable majors : int;
  mutable lost : int;
  mutable pauses_us : float list;
  open_minor : (int, int64) Hashtbl.t;
}

let gc_state () =
  { minors = 0; majors = 0; lost = 0; pauses_us = []; open_minor = Hashtbl.create 4 }

let gc_cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

let gc_callbacks g =
  let ts t = Runtime_events.Timestamp.to_int64 t in
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring t ph ->
      match ph with
      | Runtime_events.EV_MINOR ->
          Hashtbl.replace g.open_minor ring (ts t);
          if ring = 0 then g.minors <- g.minors + 1
      | Runtime_events.EV_MAJOR_GC_CYCLE_DOMAINS -> if ring = 0 then g.majors <- g.majors + 1
      | _ -> ())
    ~runtime_end:(fun ring t ph ->
      match ph with
      | Runtime_events.EV_MINOR -> (
          match Hashtbl.find_opt g.open_minor ring with
          | Some t0 ->
              Hashtbl.remove g.open_minor ring;
              g.pauses_us <- (Int64.to_float (Int64.sub (ts t) t0) /. 1e3) :: g.pauses_us
          | None -> ())
      | _ -> ())
    ~lost_events:(fun _ n -> g.lost <- g.lost + n)
    ()

let gc_drain cb = ignore (Runtime_events.read_poll (Lazy.force gc_cursor) cb None : int)

(* ---------- one traced trial ---------- *)

type traced = {
  sample : Workload.sample;
  rows : Obsv.Profile.row list;
  pre_iter_s : float;  (** call → first [scheme.iteration] span *)
  dropped : int;  (** ring events lost; the spans then undercount *)
  snapshot : Metrics.Registry.snapshot;
}

(* Large enough that no workload here wraps the ring: a dropped event
   would take the first iteration's timestamp with it. *)
let capacity = 1 lsl 18

let first_iteration_ts sink =
  let first = ref nan in
  Trace.Sink.iter sink (function
    | Trace.Sink.Span_begin { name = "scheme.iteration"; ts; _ } when Float.is_nan !first ->
        first := ts
    | _ -> ());
  !first

let traced_trial w ti =
  let sink = Trace.Sink.create ~capacity ~profile:true () in
  let metrics = Metrics.Registry.create () in
  let config = Coding.Scheme.Config.make ~sink ~metrics () in
  let sample = Workload.run_trial ~config w ti in
  {
    sample;
    rows = Obsv.Profile.of_sink sink;
    pre_iter_s = first_iteration_ts sink -. sample.Workload.t_call;
    dropped = Trace.Sink.dropped sink;
    snapshot = Metrics.Registry.snapshot metrics;
  }

let registry_trial w ti =
  let metrics = Metrics.Registry.create () in
  let config = Coding.Scheme.Config.make ~metrics () in
  let sample = Workload.run_trial ~config w ti in
  (sample, Metrics.Registry.snapshot metrics)

(* ---------- the pass ---------- *)

type t = {
  untraced : Workload.sample array * float;
  traced : traced array * float;
  repeat : Workload.sample array;  (** C's trials *)
  gc : gc;
  registry : Metrics.Registry.snapshot;  (** B's Exact snapshot, merged in trial order *)
  mismatches : string list;  (** determinism self-check failures *)
}

let run (s : Timed.setup) ~seed =
  let w = s.Timed.w in
  let n = w.Workload.traced_trials and jobs = w.Workload.traced_jobs in
  let batch = Timed.batch_of ~jobs in
  let untraced =
    Timed.loop ~jobs ~min_trials:n ~batch ~lost:Timed.lost_sample
      ~trial:(Workload.run_trial w) w ~seed
  in
  let g = gc_state () in
  let cb = gc_callbacks g in
  gc_drain cb;
  g.minors <- 0;
  g.majors <- 0;
  g.pauses_us <- [];
  let lost why =
    {
      sample = Timed.lost_sample why;
      rows = [];
      pre_iter_s = nan;
      dropped = 0;
      snapshot = [];
    }
  in
  let traced =
    Timed.loop ~jobs ~min_trials:n ~batch ~lost
      ~after_batch:(fun _ -> gc_drain cb)
      ~trial:(traced_trial w) w ~seed
  in
  Runtime_events.pause ();
  let repeat, _ =
    Timed.loop ~jobs:1 ~min_trials:n ~batch ~lost:(fun why -> (Timed.lost_sample why, []))
      ~trial:(registry_trial w) w ~seed
  in
  let exact snaps = Metrics.Registry.exact_only (Metrics.Registry.merge snaps) in
  let registry = exact (Array.to_list (Array.map (fun t -> t.snapshot) (fst traced))) in
  let mismatches =
    let a = fst untraced in
    List.concat
      [
        (let again = exact (Array.to_list (Array.map snd repeat)) in
         List.filter_map
           (fun (name, _, v) ->
             if List.exists (fun (n, _, v') -> n = name && v' = v) again then None
             else Some ("Exact metric " ^ name ^ " differs in the jobs=1 repeat"))
           registry
         @ List.filter_map
             (fun (name, _, _) ->
               if List.exists (fun (n, _, _) -> n = name) registry then None
               else Some ("Exact metric " ^ name ^ " missing from the traced pass"))
             again);
        List.concat
          (List.init (Array.length a) (fun i ->
               let x = a.(i) and y = fst repeat.(i) in
               if x.Workload.cc <> y.Workload.cc || x.Workload.iterations <> y.Workload.iterations
               then
                 [
                   Printf.sprintf "trial %d: cc/iterations %d/%d at jobs=%d vs %d/%d at jobs=1" i
                     x.Workload.cc x.Workload.iterations jobs y.Workload.cc
                     y.Workload.iterations;
                 ]
               else []));
      ]
  in
  { untraced; traced; repeat = Array.map fst repeat; gc = g; registry; mismatches }

(* ---------- per-layer metrics from the pass ---------- *)

let row rows name = List.find_opt (fun r -> r.Obsv.Profile.name = name) rows

let span_sum ts name f =
  Array.fold_left
    (fun acc t -> match row t.rows name with Some r -> acc +. f r | None -> acc)
    0. ts

let counter snap name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with Metrics.Registry.Counter c when n = name -> acc + c | _ -> acc)
    0 snap

let iterations ts =
  Array.fold_left (fun acc t -> acc +. float_of_int t.sample.Workload.iterations) 0. ts
  |> Float.max 1.

(* Phase and count metrics.  Per-iteration figures divide by the
   iterations the traced trials ran; per-run figures by the trials. *)
let metrics (w : Workload.t) p =
  let ts = fst p.traced in
  let n = float_of_int (max 1 (Array.length ts)) in
  let iters = iterations ts in
  let wall name = span_sum ts name (fun r -> r.Obsv.Profile.wall_s) in
  let words name = span_sum ts name (fun r -> r.Obsv.Profile.minor_words) in
  let run_wall = Array.fold_left (fun acc t -> acc +. t.sample.Workload.wall_s) 0. ts in
  let iter_wall = wall "scheme.iteration" in
  let phases =
    [
      "phase.meeting_points"; "phase.flag_passing"; "phase.simulation"; "phase.rewind";
      "phase.fault_prepass";
    ]
  in
  let untraced_wall = Array.fold_left (fun acc s -> acc +. s.Workload.wall_s) 0. (fst p.untraced) in
  let per_run c = float_of_int (counter p.registry c) /. n in
  let chunks f = Array.fold_left (fun acc t -> acc + f t.sample) 0 ts in
  let busy =
    Array.fold_left (fun acc s -> acc +. s.Workload.wall_s) 0. (fst p.untraced)
    /. (float_of_int w.Workload.traced_jobs *. snd p.untraced)
  in
  let pauses = p.gc.pauses_us in
  [
    ("scheme.pre_iter_s", "s", Array.fold_left (fun acc t -> acc +. t.pre_iter_s) 0. ts /. n);
    ("phase.meeting_points.ms_per_iter", "ms", 1000. *. wall "phase.meeting_points" /. iters);
    ("phase.meeting_points.words_per_iter", "words", words "phase.meeting_points" /. iters);
    ("phase.simulation.ms_per_iter", "ms", 1000. *. wall "phase.simulation" /. iters);
    ("phase.simulation.words_per_iter", "words", words "phase.simulation" /. iters);
    ("phase.rewind.ms_per_iter", "ms", 1000. *. wall "phase.rewind" /. iters);
    ("phase.flag_passing.ms_per_iter", "ms", 1000. *. wall "phase.flag_passing" /. iters);
    ("phase.exchange_s", "s", wall "phase.exchange" /. n);
    ("phase.output_s", "s", wall "phase.output" /. n);
    ( "scheme.unattributed_s",
      "s",
      (run_wall -. iter_wall -. wall "phase.exchange" -. wall "phase.output") /. n );
    ("telemetry.trace_overhead_pct", "%", 100. *. ((run_wall /. untraced_wall) -. 1.));
    ("scheme.mp_truncations", "count", per_run "scheme.mp_truncations");
    ("scheme.rewinds", "count", per_run "scheme.rewinds");
    ("scheme.phi_stalls", "count", per_run "scheme.phi_stalls");
    ("net.cc", "count", per_run "net.cc");
    ("net.corruptions", "count", per_run "net.corruptions");
    ("live.rounds", "count", per_run "live.rounds");
    ( "coding.rework_per_chunk",
      "frac",
      float_of_int (chunks (fun s -> s.Workload.chunks_rewound))
      /. float_of_int
           (max 1
              (chunks (fun s -> s.Workload.chunks_total) * 2 * Topology.Graph.m w.Workload.graph))
    );
    ("runner.busy_frac", "frac", busy);
    ("gc.minor_collections_per_run", "count", float_of_int p.gc.minors /. n);
    ("gc.major_collections_per_run", "count", float_of_int p.gc.majors /. n);
    ("gc.minor_pause_us_p50", "us", Util.Stats.percentile 0.5 pauses);
    ("gc.minor_pause_us_p99", "us", Util.Stats.percentile 0.99 pauses);
    ( "ledger.phase_sum_frac",
      "frac",
      List.fold_left (fun acc ph -> acc +. wall ph) 0. phases /. Float.max 1e-9 iter_wall );
  ]

(* The MP phase's own wall per iteration, for the computed
   reconciliation in {!Units}. *)
let mp_ms_per_iter p =
  let ts = fst p.traced in
  1000. *. span_sum ts "phase.meeting_points" (fun r -> r.Obsv.Profile.wall_s) /. iterations ts

let dropped p = Array.fold_left (fun acc t -> acc + t.dropped) 0 (fst p.traced)
