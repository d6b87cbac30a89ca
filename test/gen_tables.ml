(* Render the reduced-parameter tables of {!Reduced} to stdout, one
   section per experiment. The [runtest] alias diffs this output
   against the committed [tables.expected]; after an intended change,
   [dune runtest; dune promote] updates the file. *)

module Engine = Rme_experiments.Engine

let () =
  let engine = Engine.create ~jobs:1 () in
  List.iter
    (fun (id, run) ->
      Printf.printf "---- %s ----\n" id;
      List.iter Rme_util.Table.print (run engine))
    Reduced.runs;
  Engine.shutdown engine
