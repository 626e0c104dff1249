(* Printing: a human-readable table, then the one-line JSON result the
   benchmark contract asks for as the last line of standard output.
   A metric is a (name, unit, value) triple. *)

(* JSON has no NaN or infinity: a metric that could not be measured is
   reported as 0 and named on a "not measured" line above the result. *)
let finite (name, unit, v) = if Float.is_finite v then (name, unit, v) else (name, unit, 0.)

let table ~title metrics =
  Printf.printf "%s\n" title;
  List.iter
    (fun (name, unit, v) ->
      Printf.printf "  %-40s %16.6g %s%s\n" name v unit
        (if Float.is_finite v then "" else "   (not measured)"))
    metrics

let json_string s = "\"" ^ String.escaped s ^ "\""

let result ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun m ->
        let name, unit, v = finite m in
        Printf.sprintf "%s: {\"value\": %.17g, \"unit\": %s}" (json_string name) v
          (json_string unit))
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " body)
