(* The benchmark's workloads and its correctness gate.

   A workload fixes Π (its speaking order is seeded by a constant, so
   set-up cost and chunk layout do not vary with the workload seed), the
   algorithm, the noise rate and the trial counts.  Everything random per
   trial — party inputs, the scheme's rng and the noise pattern — is
   derived from the workload seed and the trial index with
   [Runner.Pool.trial_rng], so a seed names the same trials at any job
   count.

   The gate: each trial's reference is recomputed here with
   [Pi.run_noiseless] on the inputs generated here.  A trial fails when
   it raises, lands in [Aborted], or any party's output differs from
   that reference. *)

type t = {
  name : string;
  graph : Topology.Graph.t;
  pi : Protocol.Pi.t;
  params : Coding.Params.t;
  rate : float;  (** iid additive noise per slot; 0 = noiseless *)
  setup_reps : int;  (** set-ups per round; the timed pass runs two rounds *)
  exact_trials : int;  (** timed-pass trial prefix whose Exact metrics are reported *)
  traced_trials : int;  (** trials of each traced-pass run *)
  traced_jobs : int;  (** [Runner.Pool] workers of the traced pass's untraced and traced runs *)
}

let pi_seed = 3
let chatter g ~rounds = Protocol.Protocols.random_chatter g ~rounds ~density:0.5 ~seed:pi_seed

let make name ~graph ~rounds ~params ~rate ~setup_reps ~exact_trials ~traced_trials
    ~traced_jobs =
  {
    name;
    graph;
    pi = chatter graph ~rounds;
    params = params graph;
    rate;
    setup_reps;
    exact_trials;
    traced_trials;
    traced_jobs;
  }

(* Workload names as the command line takes them.  [toy] shrinks every
   workload to a sub-second run for the smoke check; the shapes (graph
   family, algorithm, noise, jobs) stay those of the full workload.

   The timed pass runs one closed-loop worker on every workload.  On the
   2-core box the baseline was taken on, two domains sharing OCaml 5's
   stop-the-world minor GC made crs_k5's wall-time figures spread by
   20-40% between back-to-back runs, against 7-10% with one; so the
   two-domain case is measured in the traced pass ([traced_jobs]), where
   [runner.busy_frac] and the GC pauses show what a second domain costs.

   grid1024 is the set-up-bound workload at the scale the roadmap names;
   one trial takes about 6 s, so a window holds four trials and its
   figures spread by 30-45% between runs on that box.  grid256 is the
   same shape (noiseless Algorithm 1 on a grid, Π of 20 rounds, the run
   dominated by [Chunking] before the first iteration) at 0.4 s a trial,
   and is the one BENCHMARK.json gates. *)
let names = [ "crs_k5"; "delta_line16"; "grid256"; "grid1024" ]

let create ?(toy = false) name =
  match name with
  | "crs_k5" ->
      make name
        ~graph:(Topology.Graph.clique 5)
        ~rounds:(if toy then 40 else 300)
        ~params:Coding.Params.algorithm_1 ~rate:0.0005 ~setup_reps:8
        ~exact_trials:(if toy then 4 else 64)
        ~traced_trials:(if toy then 4 else 32)
        ~traced_jobs:(max 1 (min 2 (Domain.recommended_domain_count ())))
  | "delta_line16" ->
      make name
        ~graph:(Topology.Graph.line (if toy then 4 else 16))
        ~rounds:(if toy then 40 else 300)
        ~params:Coding.Params.algorithm_a ~rate:0.0005 ~setup_reps:2
        ~exact_trials:(if toy then 2 else 10)
        ~traced_trials:(if toy then 2 else 3)
        ~traced_jobs:1
  | "grid256" | "grid1024" ->
      let side = if toy then 3 else if name = "grid256" then 16 else 32 in
      make name
        ~graph:(Topology.Graph.grid ~rows:side ~cols:side)
        ~rounds:20 ~params:Coding.Params.algorithm_1 ~rate:0.
        ~setup_reps:(if name = "grid256" then 3 else 1)
        ~exact_trials:1 ~traced_trials:1 ~traced_jobs:1
  | _ -> invalid_arg ("unknown workload: " ^ name)

(* ---------- per-trial inputs ---------- *)

type trial_input = {
  inputs : int array;
  reference : int array;
  rng : Util.Rng.t;  (** the scheme's own stream, fresh per trial *)
  adversary : Netsim.Adversary.t;
}

let key w ~seed part = Printf.sprintf "perfbench:%s:%d:%s" w.name seed part

let trial_input w ~seed t =
  let in_rng = Runner.Pool.trial_rng ~key:(key w ~seed "inputs") t in
  let inputs = Array.init (Topology.Graph.n w.graph) (fun _ -> Util.Rng.int in_rng 65536) in
  {
    inputs;
    reference = Protocol.Pi.run_noiseless w.pi ~inputs;
    rng = Runner.Pool.trial_rng ~key:(key w ~seed "scheme") t;
    adversary =
      (if w.rate = 0. then Netsim.Adversary.Silent
       else Netsim.Adversary.iid (Runner.Pool.trial_rng ~key:(key w ~seed "noise") t) ~rate:w.rate);
  }

(* ---------- one trial ---------- *)

(** What one trial reports.  [wall_s] covers [Scheme.run_outcome] only;
    [minor_words] and [major_words] are Gc deltas over the same call,
    the minor count from the calling domain's own counter. *)
type sample = {
  ok : bool;
  why : string;  (** failure reason; "" when [ok] *)
  wall_s : float;
  t_call : float;  (** [Unix.gettimeofday] at the call *)
  minor_words : float;
  major_words : float;
  cc : int;
  cc_pi : int;
  rounds : int;
  iterations : int;
  chunks_total : int;
  chunks_rewound : int;
}

(* The gate proper: the outcome's result, if any, and why it fails ("" when
   it passes). *)
let judge ~reference (outcome : Coding.Scheme.result Faults.Outcome.t) =
  match outcome with
  | Faults.Outcome.Aborted (reason, _) ->
      (None, "aborted: " ^ Faults.Outcome.abort_to_string reason)
  | Faults.Outcome.Completed r | Faults.Outcome.Degraded (r, _) ->
      if r.Coding.Scheme.outputs = reference then (Some r, "")
      else (Some r, "outputs differ from the noiseless reference")

let run_trial ?(config = Coding.Scheme.Config.default) w (ti : trial_input) =
  let config = { config with Coding.Scheme.Config.inputs = Some ti.inputs } in
  let mn0 = Gc.minor_words () in
  let mj0 = (Gc.quick_stat ()).Gc.major_words in
  let t_call = Unix.gettimeofday () in
  let outcome =
    try Ok (Coding.Scheme.run_outcome ~config ~rng:ti.rng w.params w.pi ti.adversary)
    with e -> Error (Printexc.to_string e)
  in
  let wall_s = Unix.gettimeofday () -. t_call in
  let minor_words = Gc.minor_words () -. mn0 in
  let major_words = (Gc.quick_stat ()).Gc.major_words -. mj0 in
  let base =
    {
      ok = false;
      why = "";
      wall_s;
      t_call;
      minor_words;
      major_words;
      cc = 0;
      cc_pi = 0;
      rounds = 0;
      iterations = 0;
      chunks_total = 0;
      chunks_rewound = 0;
    }
  in
  match outcome with
  | Error e -> { base with why = "raised: " ^ e }
  | Ok o -> (
      match judge ~reference:ti.reference o with
      | None, why -> { base with why }
      | Some r, why ->
          {
            base with
            ok = why = "";
            why;
            cc = r.Coding.Scheme.cc;
            cc_pi = r.Coding.Scheme.cc_pi;
            rounds = r.Coding.Scheme.rounds;
            iterations = r.Coding.Scheme.iterations_run;
            chunks_total = r.Coding.Scheme.chunks_total;
            chunks_rewound = r.Coding.Scheme.chunks_rewound;
          })
