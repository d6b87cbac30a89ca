(* Smoke tests for the rme CLI: drive the cmdliner terms in-process
   (Cli.eval ~argv) and check exit codes and output shape, including
   the -j flag of the experiment subcommand. *)

module Cli = Rme_cli.Cli

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

(* Run [f] with stdout redirected to a temp file; return (result, output). *)
let capture_stdout f =
  let file, oc = Filename.open_temp_file "rme_cli_test" ".out" in
  close_out oc;
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  let v = Fun.protect ~finally:restore f in
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let out = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  (v, out)

let eval args = capture_stdout (fun () -> Cli.eval ~argv:(Array.of_list ("rme" :: args)) ())

let test_locks () =
  let code, out = eval [ "locks" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "lists km" true (contains ~needle:"katzan-morrison" out);
  Alcotest.(check bool) "lists mcs" true (contains ~needle:"mcs" out)

let test_simulate () =
  let code, out = eval [ "simulate"; "--lock"; "mcs"; "-n"; "4" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports ok" true (contains ~needle:"ok=true" out)

let test_adversary () =
  let code, out = eval [ "adversary"; "--lock"; "rcas"; "-n"; "32"; "--width"; "8" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "reports rounds" true (contains ~needle:"rounds=" out)

let test_experiment_e1_parallel () =
  let code, out = eval [ "experiment"; "e1"; "-j"; "2" ] in
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "prints the E1 table" true (contains ~needle:"E1" out);
  Alcotest.(check bool) "prints rows" true (contains ~needle:"katzan-morrison" out);
  Alcotest.(check bool) "prints counters" true (contains ~needle:"cells:" out);
  Alcotest.(check bool) "reports j=2" true (contains ~needle:"j=2" out)

let test_unknown_lock_rejected () =
  let code, _ = eval [ "simulate"; "--lock"; "nope" ] in
  Alcotest.(check bool) "non-zero exit" true (code <> 0)

let test_resume_needs_cache_dir () =
  Unix.putenv "RME_CACHE_DIR" "";
  let code, _ = eval [ "experiment"; "e1"; "--resume" ] in
  Alcotest.(check int) "exit 2" 2 code

(* [config_of_flags] with every flag at its default, except those given. *)
let config ?(workers = 0) ?cache_dir ?(no_cache = false) ?(resume = false) () =
  Cli.config_of_flags ~jobs:1 ~workers ~cache_dir ~no_cache ~progress:false ~resume
    ~cell_timeout:None ~step_budget:None ~autosave_cells:None

let cache_dir_of r =
  match r with Ok c -> c.Cli.cache_dir | Error e -> Alcotest.fail e

let test_config_cache_dir () =
  (* --no-cache beats --cache-dir, which beats RME_CACHE_DIR. *)
  Unix.putenv "RME_CACHE_DIR" "/tmp/from-env";
  Alcotest.(check (option string)) "env respected" (Some "/tmp/from-env")
    (cache_dir_of (config ()));
  Alcotest.(check (option string)) "flag wins" (Some "/tmp/flag")
    (cache_dir_of (config ~cache_dir:"/tmp/flag" ()));
  Alcotest.(check (option string)) "no-cache wins" None
    (cache_dir_of (config ~cache_dir:"/tmp/flag" ~no_cache:true ()));
  Alcotest.(check bool) "--resume with the env dir is fine" true
    (Result.is_ok (config ~resume:true ()));
  Unix.putenv "RME_CACHE_DIR" "";
  Alcotest.(check (option string)) "empty env is off" None (cache_dir_of (config ()));
  Alcotest.(check bool) "--resume without a dir is an error" true
    (Result.is_error (config ~resume:true ()))

let test_config_workers () =
  let workers w =
    match config ~workers:w () with Ok c -> c.Cli.workers | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "flag respected" 3 (workers 3);
  Alcotest.(check int) "negative clamps to 0" 0 (workers (-2))

let suite =
  ( "cli",
    [
      Alcotest.test_case "locks" `Quick test_locks;
      Alcotest.test_case "simulate" `Quick test_simulate;
      Alcotest.test_case "adversary" `Quick test_adversary;
      Alcotest.test_case "experiment e1 -j 2" `Quick test_experiment_e1_parallel;
      Alcotest.test_case "unknown lock rejected" `Quick test_unknown_lock_rejected;
      Alcotest.test_case "experiment --resume without cache dir" `Quick
        test_resume_needs_cache_dir;
      Alcotest.test_case "config: cache dir resolution order" `Quick
        test_config_cache_dir;
      Alcotest.test_case "config: worker count resolution" `Quick test_config_workers;
    ] )
