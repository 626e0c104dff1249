(* The two passes of the benchmark and the verdict each reports.

   Timed pass: a round of set-ups, a closed loop of trials for the
   given seconds with every probe off, and a second round of set-ups
   (median of both rounds reported as setup_s), reporting the
   end-to-end metrics.  Traced pass: one set-up, the first [traced_trials] trials
   untraced / traced / repeated at jobs=1 ({!Ledger}), then the unit
   costs ({!Units}), reporting the per-layer metrics.  Both return the
   metrics with a verdict: trials attempted and failed, every problem
   found, and the context lines {!print} shows above the table. *)

(* What both passes report about their own trustworthiness, plus the
   context lines printed above the metrics table. *)
type verdict = { attempted : int; failed : int; problems : string list; notes : string list }

let judge ?(notes = []) samples ~extra =
  let failed = List.filter (fun s -> not s.Workload.ok) samples in
  {
    attempted = List.length samples;
    failed = List.length failed;
    problems = List.map (fun s -> "failed trial: " ^ s.Workload.why) failed @ extra;
    notes;
  }

(* The warm-up trial is the same trial every set-up, so its Exact
   figures must repeat.  Allocation repeats only once lazy library
   state is built, i.e. from the second set-up on. *)
let warm_mismatches warm =
  match warm with
  | _ :: (w2 :: _ as rest) ->
      List.concat_map
        (fun w ->
          if w.Workload.cc <> w2.Workload.cc || w.Workload.iterations <> w2.Workload.iterations
             || w.Workload.minor_words <> w2.Workload.minor_words
          then
            [
              Printf.sprintf
                "warm-up trial not repeatable: cc %d/%d iterations %d/%d minor words %.0f/%.0f"
                w.Workload.cc w2.Workload.cc w.Workload.iterations w2.Workload.iterations
                w.Workload.minor_words w2.Workload.minor_words;
            ]
          else [])
        rest
  | _ -> []

let timed ?toy name ~seed ~seconds =
  let s = Timed.setup ?toy name in
  let run = Timed.run ~seconds s ~seed in
  let s = Timed.extend ?toy s in
  let metrics = Timed.end_to_end s run in
  let samples = run.Timed.samples in
  let notes =
    [
      Printf.sprintf "workload %s  seed %d  jobs 1  window %.2fs  trials %d (Exact prefix %d)" name
        seed run.Timed.wall_s (Array.length samples) s.Timed.w.Workload.exact_trials;
      Printf.sprintf "run_s percentiles over %d samples; setup_s median of %d set-ups"
        (Array.length samples) (List.length s.Timed.setup_s);
    ]
  in
  ( metrics,
    judge ~notes (s.Timed.warm @ Array.to_list samples) ~extra:(warm_mismatches s.Timed.warm) )

let traced ?toy name ~seed =
  let s = Timed.setup ?toy name in
  let w = s.Timed.w in
  let p = Ledger.run s ~seed in
  let unit_costs, mp_model_ms = Units.measure w in
  let metrics =
    Ledger.metrics w p @ unit_costs
    @ [ ("ledger.mp_explained_frac", "frac", mp_model_ms /. Ledger.mp_ms_per_iter p) ]
  in
  let notes =
    [
      Printf.sprintf
        "workload %s  seed %d  jobs %d  traced trials %d  ring drops %d  gc events lost %d" name
        seed w.Workload.traced_jobs w.Workload.traced_trials (Ledger.dropped p)
        p.Ledger.gc.Ledger.lost;
      "ledger.mp_explained_frac is computed: unit hash cost x App. A hash count / MP wall";
    ]
  in
  let samples =
    s.Timed.warm
    @ Array.to_list (fst p.Ledger.untraced)
    @ Array.to_list (Array.map (fun t -> t.Ledger.sample) (fst p.Ledger.traced))
    @ Array.to_list p.Ledger.repeat
  in
  let drops =
    if Ledger.dropped p = 0 then []
    else [ Printf.sprintf "trace ring dropped %d events" (Ledger.dropped p) ]
  in
  (metrics, judge ~notes samples ~extra:(p.Ledger.mismatches @ drops))

let run ?toy ~workload ~seed ~seconds ~trace () =
  if trace then traced ?toy workload ~seed else timed ?toy workload ~seed ~seconds

let print ~trace (metrics, v) =
  List.iter print_endline v.notes;
  Out.table ~title:(if trace then "per-layer metrics" else "end-to-end metrics") metrics;
  List.iter (fun p -> Printf.printf "PROBLEM %s\n" p) v.problems;
  Printf.printf "failed %d of %d trials attempted\n" v.failed v.attempted
