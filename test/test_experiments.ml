(* End-to-end tests of the experiment harness: each experiment runs with
   the reduced parameters of {!Reduced}, produces non-empty tables, and
   contains no FAIL cells. The values themselves are pinned by the
   [tables.expected] diff rule in this directory's dune file. *)

module E = Rme_experiments.Experiments
module Engine = Rme_experiments.Engine
module Table = Rme_util.Table

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let check_tables name tables =
  Alcotest.(check bool) (name ^ ": produced tables") true (tables <> []);
  List.iter
    (fun t ->
      let rendered = Table.render t in
      Alcotest.(check bool) (name ^ ": non-trivial") true (String.length rendered > 40);
      Alcotest.(check bool)
        (name ^ ": no FAIL cells in " ^ rendered)
        false
        (contains ~needle:"FAIL" rendered))
    tables

(* One engine for the suite, so cells shared between experiments (E6
   reuses E1's) are computed once, as in a real sweep. *)
let engine = lazy (Engine.create ~jobs:1 ())
let check id = check_tables id (Reduced.run id (Lazy.force engine))
let test_e1 () = check "e1"
let test_e2 () = check "e2"
let test_e3 () = check "e3"
let test_e5 () = check "e5"
let test_e6 () = check "e6"
let test_e7 () = check "e7"
let test_e8 () = check "e8"
let test_a1 () = check "a1"
let test_a2 () = check "a2"

let test_run_one () =
  Alcotest.(check bool) "unknown id" true (E.run_one ~engine:(Lazy.force engine) "zzz" = None);
  Alcotest.(check int) "catalogue size" 12 (List.length E.all);
  Alcotest.(check bool) "ids unique" true
    (let ids = List.map (fun (i, _, _) -> i) E.all in
     List.length ids = List.length (List.sort_uniq compare ids))

let suite =
  ( "experiments",
    [
      Alcotest.test_case "e1 landscape" `Quick test_e1;
      Alcotest.test_case "e2 word-size" `Quick test_e2;
      Alcotest.test_case "e3 adversary" `Quick test_e3;
      Alcotest.test_case "e5 crashes" `Quick test_e5;
      Alcotest.test_case "e6 models" `Quick test_e6;
      Alcotest.test_case "e7 crossover" `Quick test_e7;
      Alcotest.test_case "e8 system-wide" `Quick test_e8;
      Alcotest.test_case "a1 arity ablation" `Quick test_a1;
      Alcotest.test_case "a2 k ablation" `Quick test_a2;
      Alcotest.test_case "catalogue" `Quick test_run_one;
    ] )
