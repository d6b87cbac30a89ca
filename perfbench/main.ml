(* The benchmark's main program. One process runs one workload at -j 1:

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --digest --workload NAME --seed N
     perfbench --self-test

   (An untraced run also starts itself, one at a time, as
   [perfbench --setup-probe --workload NAME --seed N] to time further
   set-ups in fresh processes.)

   and prints, as its last line of standard output, one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   Untraced runs (--trace 0) report the end-to-end metrics; traced runs
   (--trace 1) report the per-layer metrics. Progress and a human
   summary go to standard error. *)

open Support

let workloads =
  [
    ("km_scale", Wl_km.make);
    ("adversary", Wl_adversary.make);
    ("sweep_store", Wl_sweep.make);
  ]

let setup_reps = 15
let warm_batch_cells = 2000

type report = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Probes.metric list;
  digest : string;
  notes : string list;  (** why [correct] is false, when it is. *)
}

(* Per slot, the best time over the given passes. Interference on a
   shared machine only ever adds time, so the best of several passes
   is what repeats from run to run. *)
let best_times passes slots =
  Array.init slots (fun i ->
      minimum (List.map (fun (p : Workload.outcome array) -> p.(i).Workload.secs) passes))

let digest_of (pass : Workload.outcome array) =
  digest_hex (String.concat "\n" (Array.to_list (Array.map (fun o -> o.Workload.stat) pass)))

(* A set-up: input generation, Engine.create and one warm-up unit. *)
let setup ~make ~seed ~smoke =
  let dir = fresh_dir "setup" in
  let w, secs =
    time (fun () ->
        let (w : Workload.t) = make ~seed ~smoke ~dir in
        w.Workload.warm_up ();
        w)
  in
  (w, secs)

(* The child of [setup_in_child], if one is running. *)
let child = ref None

let stop_child () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      child := None)
    !child

(* One set-up in a fresh process of this program ([--setup-probe]),
   which prints its time and exits. A new process starts from the same
   small heap as the workload's own process, so heap growth falls into
   every sample, as it does into the first. *)
let setup_in_child ~name ~seed ~smoke =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ Sys.executable_name; "--setup-probe"; "--workload"; name; "--seed"; string_of_int seed ]
    @ if smoke then [ "--smoke" ] else []
  in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin wr Unix.stderr in
  child := Some pid;
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  child := None;
  match (status, float_of_string_opt (String.trim line)) with
  | Unix.WEXITED 0, Some secs -> secs
  | _ -> failwith (Printf.sprintf "perfbench: the set-up probe for %s failed" name)

(* [expected] is the pinned digest of the workload's simulated
   statistics at this seed and size, if one is pinned. *)
let run_workload ~name ~make ~seed ~seconds ~trace ~smoke ~expected =
  let m = Probes.m in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  (* The first set-up is the workload that runs. An untraced run takes
     [setup_reps - 1] more in fresh processes, spread over the run so
     that their median does not rest on one stretch of it. *)
  let w, first_setup = setup ~make ~seed ~smoke in
  let setup_times = ref [ first_setup ] in
  let extra_setups ~share =
    while
      (not trace)
      && float_of_int (List.length !setup_times) < Float.min 1.0 share *. float_of_int setup_reps
    do
      setup_times := setup_in_child ~name ~seed ~smoke :: !setup_times
    done
  in
  (* Timed passes. A traced run alternates untraced and traced passes
     so that the tracing overhead is measured inside one process. An
     untraced run follows each pass with warm batches worth a third of
     the pass's time: fresh engines re-serve every result, about
     [warm_batch_cells] cells per batch. Interleaving
     spreads both kinds of sample over the whole run, so one burst of
     interference on the machine cannot cover all of either. *)
  let budget = seconds *. if trace then 0.5 else 1.0 in
  let min_passes = if trace then 2 else 3 in
  let passes = ref [] and warm_rates = ref [] in
  let warm_served = ref 0 and warm_failed = ref 0 and warm_reps = ref 0 in
  let warm_batches ~until =
    while now () < until || !warm_rates = [] do
      (* A fixed amount of work per batch, from a collected heap, so
         that the heap's peak repeats from run to run. *)
      Gc.full_major ();
      let b0 = now () in
      let served = ref 0 in
      for _ = 1 to !warm_reps do
        let n, bad = w.Workload.warm () in
        served := !served + n;
        warm_failed := !warm_failed + bad
      done;
      warm_served := !warm_served + !served;
      warm_rates := (float_of_int !served /. (now () -. b0)) :: !warm_rates
    done
  in
  let t0 = now () in
  let rec loop k =
    let traced = trace && k mod 2 = 1 in
    Span.enabled := traced;
    let p0 = now () in
    let pass =
      Span.with_ "pass" (fun () ->
          Array.init w.Workload.slots (fun i ->
              (* Each unit starts from a collected heap, whatever the
                 garbage its predecessor left. *)
              Gc.full_major ();
              w.Workload.run i))
    in
    Span.enabled := false;
    let pass_secs = now () -. p0 in
    passes := (traced, pass) :: !passes;
    if not trace then begin
      if k = 0 then begin
        w.Workload.prepare_warm ();
        let cells =
          Array.fold_left (fun acc (o : Workload.outcome) -> acc + o.Workload.cells) 0 pass
        in
        warm_reps := max 1 (warm_batch_cells / cells)
      end;
      warm_batches ~until:(now () +. (pass_secs /. 3.0))
    end;
    extra_setups ~share:((now () -. t0) /. budget);
    let elapsed = now () -. t0 in
    let per_round = elapsed /. float_of_int (k + 1) in
    if k + 1 < min_passes || elapsed +. per_round <= budget then loop (k + 1)
  in
  loop 0;
  extra_setups ~share:1.0;
  let setup_s = median !setup_times in
  if not trace then
    Printf.eprintf "[perfbench] set-ups (s): %s\n%!"
      (String.concat " " (List.rev_map (Printf.sprintf "%.4f") !setup_times));
  let passes = List.rev !passes in
  let all = List.map snd passes in
  let plain = List.filter_map (fun (t, p) -> if t then None else Some p) passes in
  let first = List.hd all in
  let digest = digest_of first in
  List.iteri
    (fun k p ->
      if digest_of p <> digest then note "pass %d's simulated statistics differ from pass 0's" k)
    all;
  let steps, check_failed = w.Workload.check () in
  if check_failed > 0 then
    note "%d results disagree with their independent recomputation" check_failed;
  (match expected with
  | Some d when d <> digest -> note "digest %s differs from the pinned %s" digest d
  | Some _ | None -> ());
  let attempted = ref 0 and failed = ref check_failed in
  List.iter
    (Array.iter (fun (o : Workload.outcome) ->
         attempted := !attempted + o.Workload.cells;
         failed := !failed + o.Workload.failed))
    all;
  let cells = Array.map (fun (o : Workload.outcome) -> o.Workload.cells) first in
  let best = best_times plain w.Workload.slots in
  let total_best = Array.fold_left ( +. ) 0.0 best in
  let total_cells = Array.fold_left ( + ) 0 cells in
  let total_steps = Array.fold_left ( + ) 0 steps in
  let metrics =
    if trace then begin
      let traced = List.filter_map (fun (t, p) -> if t then Some p else None) passes in
      let traced_best = Array.fold_left ( +. ) 0.0 (best_times traced w.Workload.slots) in
      Span.enabled := true;
      let layer, probes_ok = Probes.run ~seed ~smoke in
      Span.enabled := false;
      if not probes_ok then
        note "a layer probe's check failed (trace replay, escape or lemma verify)";
      Span.write (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.tsv" name seed));
      List.iter
        (fun (span, (a : Span.agg)) ->
          Printf.eprintf
            "[perfbench]   span %-24s %6d calls %10.3f s total %10.3f s self %12d units\n" span
            a.Span.count a.Span.total a.Span.self a.Span.units)
        (Span.summary ());
      layer
      @ [
          m "trace.cells_per_s" "1/s" (float_of_int total_cells /. traced_best);
          m "trace.slowdown" "ratio" (traced_best /. total_best);
        ]
    end
    else begin
      attempted := !attempted + !warm_served;
      failed := !failed + !warm_failed;
      let per_cell_ms =
        List.init w.Workload.slots (fun i -> best.(i) *. 1e3 /. float_of_int cells.(i))
      in
      [
        m "setup_s" "s" setup_s;
        m "cells_per_s" "1/s" (float_of_int total_cells /. total_best);
        m "sim_steps_per_s" "1/s" (float_of_int total_steps /. total_best);
        m "cell_ms_p50" "ms" (median per_cell_ms);
        m "warm_cells_per_s" "1/s" (List.fold_left Float.max 0.0 !warm_rates);
        m "peak_heap_mb" "MB" (top_heap_mb ());
      ]
    end
  in
  w.Workload.finish ();
  if !failed > 0 then note "%d of %d units failed their checks" !failed !attempted;
  Printf.eprintf "[perfbench] %s seed=%d: %d passes (%d traced), digest %s%s\n%!" name seed
    (List.length all)
    (List.length all - List.length plain)
    digest
    (match expected with None -> " (not pinned)" | Some _ -> " (pinned)");
  {
    correct = !notes = [];
    attempted = !attempted;
    failed = !failed;
    metrics;
    digest;
    notes = List.rev !notes;
  }

(* The digest of one pass at full size, untimed: what [Expected] pins. *)
let pass_digest ~make ~seed =
  let dir = fresh_dir "digest" in
  let (w : Workload.t) = make ~seed ~smoke:false ~dir in
  let d = digest_of (Array.init w.Workload.slots w.Workload.run) in
  w.Workload.finish ();
  drop_dir dir;
  d

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line r =
  let metric (x : Probes.metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Probes.name (json_number x.Probes.value)
      x.Probes.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ------------------------------------------------------------------ *)
(* Self-test, at smoke size. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let spec_metrics doc key =
  match Rme_util.Json.member key doc with
  | Some (Rme_util.Json.List l) ->
      List.filter_map
        (fun x ->
          match
            ( Option.bind (Rme_util.Json.member "name" x) Rme_util.Json.to_str,
              Option.bind (Rme_util.Json.member "unit" x) Rme_util.Json.to_str )
          with
          | Some n, Some u -> Some (n, u)
          | _ -> None)
        l
  | _ -> []

let self_test () =
  let failures = ref 0 in
  let expect what ok =
    Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") what;
    if not ok then incr failures
  in
  let doc =
    match Rme_util.Json.of_string (read_file "BENCHMARK.json") with
    | Ok d -> d
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let end_to_end = spec_metrics doc "end_to_end" and per_layer = spec_metrics doc "per_layer" in
  let names =
    match Rme_util.Json.member "workloads" doc with
    | Some (Rme_util.Json.List l) ->
        List.filter_map
          (fun x -> Option.bind (Rme_util.Json.member "name" x) Rme_util.Json.to_str)
          l
    | _ -> []
  in
  expect "every workload BENCHMARK.json names is one this program runs"
    (names <> [] && List.for_all (fun n -> List.mem_assoc n workloads) names);
  let emitted r =
    List.sort compare
      (List.map (fun (x : Probes.metric) -> (x.Probes.name, x.Probes.unit_)) r.metrics)
  in
  List.iter
    (fun (name, make) ->
      let run ~trace ~expected =
        run_workload ~name ~make ~seed:Expected.default_seed ~seconds:1.0 ~trace ~smoke:true
          ~expected
      in
      let r = run ~trace:false ~expected:None in
      expect (name ^ ": smoke run passes its output check") (r.correct && r.failed = 0);
      expect (name ^ ": untraced run emits every end-to-end metric with its unit")
        (emitted r = List.sort compare end_to_end);
      expect (name ^ ": every end-to-end value is positive and finite")
        (List.for_all
           (fun (x : Probes.metric) -> Float.is_finite x.Probes.value && x.Probes.value > 0.0)
           r.metrics);
      let t = run ~trace:true ~expected:(Some r.digest) in
      expect (name ^ ": traced run passes its checks (digest and trace replay included)") t.correct;
      expect (name ^ ": traced run emits every per-layer metric with its unit")
        (emitted t = List.sort compare per_layer);
      let tampered =
        String.mapi (fun i c -> if i = 0 then if c = '0' then '1' else '0' else c) r.digest
      in
      expect (name ^ ": a run against a tampered digest fails its output check")
        (not (run ~trace:false ~expected:(Some tampered)).correct);
      let inputs seed =
        let dir = fresh_dir "inputs" in
        let (w : Workload.t) = make ~seed ~smoke:false ~dir in
        w.Workload.finish ();
        drop_dir dir;
        w.Workload.inputs
      in
      expect (name ^ ": --seed changes the generated inputs")
        (inputs Expected.default_seed <> inputs (Expected.default_seed + 1));
      expect (name ^ ": the same seed gives the same inputs")
        (inputs Expected.default_seed = inputs Expected.default_seed);
      expect (name ^ ": a digest is pinned at the default seed")
        (Expected.find ~workload:name ~seed:Expected.default_seed <> None))
    workloads;
  cleanup_tmp ();
  Printf.printf "self-test: %s\n"
    (if !failures = 0 then "passed" else Printf.sprintf "%d failed" !failures);
  exit (if !failures = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \       perfbench --digest --workload NAME --seed N\n\
    \       perfbench --self-test";
  exit 2

let () =
  (match Sys.getenv_opt "RME_FAULT" with
  | Some v when v <> "" ->
      prerr_endline "perfbench: RME_FAULT is set; refusing to measure with fault injection armed";
      exit 2
  | _ -> ());
  let workload = ref "" and seed = ref Expected.default_seed and seconds = ref 10.0 in
  let trace = ref false and self = ref false and digest = ref false in
  let setup_probe = ref false and smoke = ref false in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
        parse rest
    | "--digest" :: rest ->
        digest := true;
        parse rest
    | "--setup-probe" :: rest ->
        setup_probe := true;
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--self-test" :: rest ->
        self := true;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  at_exit (fun () ->
      stop_child ();
      cleanup_tmp ());
  (* Leave no private store directory behind when stopped. *)
  List.iter
    (fun (s, code) -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit code)))
    [ (Sys.sigint, 130); (Sys.sigterm, 143) ];
  if !self then self_test ();
  match List.assoc_opt !workload workloads with
  | None -> usage ()
  | Some make when !setup_probe ->
      let w, secs = setup ~make ~seed:!seed ~smoke:!smoke in
      w.Workload.finish ();
      Printf.printf "%.17g\n" secs
  | Some make when !digest ->
      Printf.printf "(%S, %d, %S);\n" !workload !seed (pass_digest ~make ~seed:!seed)
  | Some make ->
      let r =
        run_workload ~name:!workload ~make ~seed:!seed ~seconds:!seconds ~trace:!trace
          ~smoke:false ~expected:(Expected.find ~workload:!workload ~seed:!seed)
      in
      List.iter (fun s -> Printf.eprintf "[perfbench] check failed: %s\n" s) r.notes;
      List.iter
        (fun (x : Probes.metric) ->
          Printf.eprintf "[perfbench]   %-32s %14.6g %s\n" x.Probes.name x.Probes.value
            x.Probes.unit_)
        r.metrics;
      print_endline (result_line r)
