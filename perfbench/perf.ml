(* The scheme benchmark's entry point.

     perf.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 runs the timed pass, --trace 1 the traced pass (see
   {!Passes}).  The last line of standard output is one JSON object;
   the exit status is non-zero when any trial failed the correctness
   gate or the determinism self-check did not hold, and 2 on bad
   arguments. *)

let usage = "perf.exe --workload NAME --seed N --seconds S --trace 0|1"

let main () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workload.names);
      ("--seed", Arg.Int (fun n -> seed := Some n), "N workload seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), "S timed window");
      ("--trace", Arg.Int (fun t -> trace := Some t), "0|1 timed or traced pass");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  match (!seed, !seconds, !trace) with
  | Some seed, Some seconds, Some ((0 | 1) as t)
    when List.mem !workload Workload.names && seconds > 0. ->
      let ((metrics, v) as r) = Passes.run ~workload:!workload ~seed ~seconds ~trace:(t = 1) () in
      Passes.print ~trace:(t = 1) r;
      let correct = v.failed = 0 && v.problems = [] in
      print_endline (Out.result ~correct ~attempted:v.attempted ~failed:v.failed metrics);
      exit (if correct then 0 else 1)
  | _ ->
      prerr_endline usage;
      exit 2

let () = main ()
