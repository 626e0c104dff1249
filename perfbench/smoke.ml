(* The benchmark's own smoke check, at toy sizes (a few seconds):

     smoke.exe BENCHMARK.json

   1. Both passes of every workload print every metric BENCHMARK.json
      names — end-to-end ones from the timed pass, per-layer ones from
      the traced pass — each exactly once and with BENCHMARK.json's
      unit, and no trial fails.
   2. The Exact metrics repeat across two timed passes of one seed;
      the traced pass itself checks the registry and cc/iterations at
      jobs=1 against its own two-domain run on crs_k5.
   3. The correctness gate fails a trial handed a wrong reference, and
      a failed trial makes the result line say "correct": false. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench smoke: " ^ s); exit 1) fmt

let declared path key =
  let json = Obsv.Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  List.map
    (fun m ->
      match (Obsv.Json.member "name" m, Obsv.Json.member "unit" m) with
      | Some (Obsv.Json.Str n), Some (Obsv.Json.Str u) -> (n, u)
      | _ -> fail "%s: malformed entry under %s" path key)
    (Obsv.Json.to_list (Option.value ~default:Obsv.Json.Null (Obsv.Json.member key json)))

let check_names ~pass expected metrics =
  List.iter
    (fun (name, unit) ->
      match List.filter (fun (n, _, _) -> n = name) metrics with
      | [ (_, u, _) ] when u = unit -> ()
      | [ (_, u, _) ] -> fail "%s pass: %s printed with unit %S, declared %S" pass name u unit
      | [] -> fail "%s pass: %s not printed" pass name
      | _ -> fail "%s pass: %s printed more than once" pass name)
    expected;
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n expected) then fail "%s pass: %s printed but not declared" pass n)
    metrics

let check_verdict ~pass (v : Passes.verdict) =
  if v.Passes.failed > 0 || v.Passes.problems <> [] then
    fail "%s pass: %d of %d trials failed; %s" pass v.Passes.failed v.Passes.attempted
      (String.concat "; " v.Passes.problems)

let exact_names = [ "cc_blowup"; "iterations_per_run"; "minor_words_per_iter" ]

let value name metrics =
  match List.find_opt (fun (n, _, _) -> n = name) metrics with Some (_, _, v) -> v | None -> nan

let gate_check () =
  let w = Workload.create ~toy:true "crs_k5" in
  let ti = Workload.trial_input w ~seed:7 0 in
  if not (Workload.run_trial w ti).Workload.ok then fail "gate: a correct trial was failed";
  let wrong = Array.mapi (fun i x -> if i = 0 then x lxor 1 else x) ti.Workload.reference in
  let s = Workload.run_trial w { ti with Workload.reference = wrong } in
  if s.Workload.ok then fail "gate: a trial with a wrong reference passed";
  let v = Passes.judge [ s ] ~extra:[] in
  if v.Passes.failed <> 1 || v.Passes.attempted <> 1 then fail "gate: failure not counted";
  let line = Out.result ~correct:(v.Passes.failed = 0) ~attempted:1 ~failed:1 [] in
  if Obsv.Json.member "correct" (Obsv.Json.parse line) <> Some (Obsv.Json.Bool false) then
    fail "gate: result line does not report the failure"

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCHMARK.json" in
  let e2e = declared path "end_to_end" and layers = declared path "per_layer" in
  List.iter
    (fun workload ->
      let timed () =
        let m, v = Passes.run ~toy:true ~workload ~seed:5 ~seconds:0.2 ~trace:false () in
        check_verdict ~pass:("timed " ^ workload) v;
        check_names ~pass:("timed " ^ workload) e2e m;
        m
      in
      let m1 = timed () and m2 = timed () in
      List.iter
        (fun n ->
          if value n m1 <> value n m2 then
            fail "%s: Exact metric %s moved between repeated runs (%.17g vs %.17g)" workload n
              (value n m1) (value n m2))
        exact_names;
      let m, v = Passes.run ~toy:true ~workload ~seed:5 ~seconds:0.2 ~trace:true () in
      check_verdict ~pass:("traced " ^ workload) v;
      check_names ~pass:("traced " ^ workload) layers m)
    Workload.names;
  gate_check ();
  print_endline "perfbench smoke: ok"
