(* The rme command-line interface.

   Subcommands:
     rme locks                         list the lock algorithms
     rme simulate  --lock km ...       run a workload through the harness
     rme adversary --lock rcas ...     run the lower-bound construction
     rme lemma ...                     solve a Process-Hiding instance
     rme experiment e1 .. f1 | all     regenerate the paper's tables
                    [-j N]             ... sharding trial cells over N domains
                    [--workers N]      ... sharding cell batches over N processes
                    [--cache-dir DIR]  ... reusing results across runs
                    [--resume]         ... continuing an interrupted sweep
                    [--cell-timeout S] [--step-budget N]
                    [--autosave-cells N] [--no-cache] [--progress|-v]
     rme store verify|repair|compact|stats [DIR]
                                       inspect / heal a result store
     rme worker                        internal: serve cell batches over
                                       stdin/stdout (spawned by --workers)

   SIGINT/SIGTERM during an experiment sweep stop cell hand-out,
   drain what is in flight, flush the store and manifest, and exit
   75 (EX_TEMPFAIL) — re-run with --resume to pick up where it
   stopped. A second signal hard-exits.
*)

open Cmdliner
module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Registry = Rme_locks.Registry
module A = Rme_core.Adversary
module T = Rme_core.Schedule_table
module Intset = Rme_util.Intset
module Engine = Rme_experiments.Engine

(* ---------------- shared arguments ---------------- *)

let lock_conv =
  let parse s =
    match Registry.find s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown lock %S (available: %s)" s
                (String.concat ", " (Registry.names ()))))
  in
  let print ppf (f : Lock_intf.factory) =
    Format.pp_print_string ppf f.Lock_intf.name
  in
  Arg.conv (parse, print)

let model_conv =
  let parse s =
    match Rmr.model_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg "model must be cc or dsm")
  in
  Arg.conv (parse, Rmr.pp_model)

let lock_arg =
  Arg.(
    required
    & opt (some lock_conv) None
    & info [ "lock"; "l" ] ~docv:"LOCK" ~doc:"Lock algorithm (see $(b,rme locks)).")

let n_arg default =
  Arg.(value & opt int default & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let width_arg =
  Arg.(
    value & opt int 16
    & info [ "width"; "w" ] ~docv:"W" ~doc:"Word size in bits (1-62).")

let model_arg =
  Arg.(
    value & opt model_conv Rmr.Cc
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc:"Cost model: cc or dsm.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* Every command evaluates to its exit code; the ones that fail by
   calling [exit] themselves otherwise succeed. *)
let exits_0 term = Term.map (fun () -> 0) term

(* ---------------- rme locks ---------------- *)

let locks_cmd =
  let run () =
    List.iter
      (fun (f : Lock_intf.factory) ->
        Printf.printf "%-16s %s  min-width(n=64)=%d\n" f.Lock_intf.name
          (if f.Lock_intf.recoverable then "recoverable " else "conventional")
          (f.Lock_intf.min_width ~n:64))
      Registry.all
  in
  Cmd.v (Cmd.info "locks" ~doc:"List the available lock algorithms.")
    (exits_0 Term.(const run $ const ()))

(* ---------------- rme simulate ---------------- *)

let simulate lock n width model seed superpassages crash_prob cs_crash trace =
  let crashes =
    if crash_prob > 0.0 then H.Crash_prob { prob = crash_prob; seed = seed * 31 }
    else H.No_crashes
  in
  let cfg =
    {
      (H.default_config ~n ~width model) with
      superpassages;
      policy = H.Random_policy seed;
      crashes;
      allow_cs_crash = cs_crash;
      max_crashes_per_process = 8;
      record_trace = trace;
    }
  in
  let r = H.run cfg lock in
  Printf.printf "lock=%s n=%d w=%d model=%s superpassages=%d\n"
    lock.Lock_intf.name n width (Rmr.model_name model) superpassages;
  Printf.printf "ok=%b steps=%d crashes=%d\n" r.H.ok r.H.steps r.H.total_crashes;
  Printf.printf "max passage RMRs=%d mean=%.2f\n" r.H.max_passage_rmr
    r.H.mean_passage_rmr;
  List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) r.H.violations;
  (match r.H.trace with
  | Some t -> Format.printf "%a" Rme_sim.Trace.pp t
  | None -> ());
  if not r.H.ok then exit 1

let simulate_cmd =
  let sp =
    Arg.(
      value & opt int 2
      & info [ "superpassages"; "s" ] ~docv:"K" ~doc:"Super-passages per process.")
  in
  let crash_prob =
    Arg.(
      value & opt float 0.0
      & info [ "crash-prob" ] ~docv:"P" ~doc:"Per-step crash probability.")
  in
  let cs_crash =
    Arg.(value & flag & info [ "cs-crash" ] ~doc:"Allow crashes inside the CS.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Print the full trace.") in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a lock through a workload and report RMRs.")
    (exits_0
       Term.(
         const simulate $ lock_arg $ n_arg 8 $ width_arg $ model_arg $ seed_arg
         $ sp $ crash_prob $ cs_crash $ trace))

(* ---------------- rme adversary ---------------- *)

let adversary lock n width model k check rounds_detail =
  let cfg = A.default_config ~n ~width model in
  let cfg = match k with Some k -> { cfg with A.k } | None -> cfg in
  let r = A.run cfg lock in
  Printf.printf "lock=%s n=%d w=%d k=%d model=%s\n" lock.Lock_intf.name n width
    cfg.A.k (Rmr.model_name model);
  Printf.printf
    "rounds=%d (Theorem 1 bound: %.2f)\nsurvivors=%d min survivor RMRs=%d\n"
    r.A.rounds_completed r.A.predicted_lower_bound
    (Intset.cardinal r.A.survivors)
    r.A.survivor_min_rmrs;
  Printf.printf "finished=%d removed=%d escaped=%d replay-checked steps=%d\n"
    r.A.finished r.A.removed r.A.escaped r.A.replay_checked_steps;
  if rounds_detail then
    List.iter
      (fun (ri : A.round_info) ->
        Printf.printf "  round %2d %-9s active %5d -> %5d finished=%d removed=%d\n"
          ri.A.index
          (A.round_kind_name ri.A.kind)
          ri.A.active_before ri.A.active_after ri.A.newly_finished
          ri.A.newly_removed)
      r.A.rounds;
  if check then begin
    let rep = T.check ~max_actives:10 r.A.schedule in
    Format.printf "invariant check: %a@." T.pp_report rep;
    if not (T.ok rep) then exit 1
  end

let adversary_cmd =
  let k =
    Arg.(
      value & opt (some int) None
      & info [ "k" ] ~docv:"K" ~doc:"Contention threshold (default w+1).")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check-invariants" ]
          ~doc:"Materialise the schedule table and verify invariants I1-I10.")
  in
  let detail = Arg.(value & flag & info [ "rounds" ] ~doc:"Print per-round detail.") in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Run the Theorem 1 lower-bound construction against a lock.")
    (exits_0
       Term.(
         const adversary $ lock_arg $ n_arg 64 $ width_arg $ model_arg $ k
         $ check $ detail))

(* ---------------- rme lemma ---------------- *)

let lemma ell delta m family seed trials =
  let module Hiding = Rme_core.Hiding in
  let fs = Rme_experiments.Experiments.e4_families in
  match List.assoc_opt family fs with
  | None ->
      Printf.eprintf "unknown family %S (available: %s)\n" family
        (String.concat ", " (List.map fst fs));
      exit 1
  | Some f ->
      let p = Hiding.paper_params ~ell ~delta in
      let gsize = Hiding.min_group_size p in
      Printf.printf
        "params: ell=%d delta=%.1f k=%d subgroup=%d group-size=%d m=%d\n" ell delta
        p.Hiding.k p.Hiding.subgroup_size gsize m;
      let groups =
        Array.init m (fun i -> Array.init gsize (fun j -> (i * gsize) + j))
      in
      let sol = Hiding.solve p ~groups ~f ~y0:0 in
      (match Hiding.verify sol ~f with
      | Ok () -> print_endline "solve: ok (all lemma clauses verified)"
      | Error e ->
          Printf.printf "solve: FAILED %s\n" e;
          exit 1);
      let rng = Rme_util.Splitmix.create seed in
      let v = Hiding.all_v sol in
      let budget = int_of_float (delta *. float_of_int (Intset.cardinal v)) in
      let pool = Array.concat (Array.to_list groups) in
      let min_id = ref max_int in
      for _ = 1 to trials do
        Rme_util.Splitmix.shuffle rng pool;
        let d =
          Array.sub pool 0 (Rme_util.Splitmix.int rng (budget + 1))
          |> Array.fold_left (fun acc x -> Intset.add x acc) Intset.empty
        in
        let hs = Hiding.query sol ~d in
        min_id := min !min_id (List.length hs);
        match Hiding.verify_query sol ~f ~d hs with
        | Ok () -> ()
        | Error e ->
            Printf.printf "query: FAILED %s\n" e;
            exit 1
      done;
      Printf.printf "%d random discovery sets: min |I_D| = %d (needs >= %.1f)\n"
        trials !min_id
        (float_of_int m /. 2.0)

let lemma_cmd =
  let ell = Arg.(value & opt int 1 & info [ "ell" ] ~doc:"Value-domain bits.") in
  let delta = Arg.(value & opt float 1.0 & info [ "delta" ] ~doc:"Discovery budget.") in
  let m = Arg.(value & opt int 3 & info [ "groups" ] ~doc:"Number of groups.") in
  let family =
    Arg.(
      value
      & opt string "fas (last writer)"
      & info [ "family" ] ~doc:"Operation family (see experiment e4).")
  in
  let trials = Arg.(value & opt int 20 & info [ "trials" ] ~doc:"Random D sets.") in
  Cmd.v
    (Cmd.info "lemma" ~doc:"Solve and verify a Process-Hiding Lemma instance.")
    (exits_0 Term.(const lemma $ ell $ delta $ m $ family $ seed_arg $ trials))

(* ---------------- rme worker ---------------- *)

(* The hidden counterpart of --workers: the coordinator spawns [rme
   worker [--cache-dir DIR]] subprocesses and streams cell batches to
   them over stdin/stdout. Not meant for human invocation (it will sit
   silently waiting for frames), but harmless if invoked. *)

let cell_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "cell-timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per trial cell. A cell exceeding it records an \
           explicit timed-out result instead of hanging the sweep; \
           $(b,--resume) retries such cells with an escalated budget.")

let step_budget_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "step-budget" ] ~docv:"STEPS"
        ~doc:
          "Scheduler-turn budget per trial cell; default is the harness's \
           n-squared formula.")

let worker_cmd =
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Let the worker consult and feed this result store itself.")
  in
  let retry =
    Arg.(
      value & flag
      & info [ "retry-timed-out" ]
          ~doc:"Treat stored timed-out results as misses (resume mode).")
  in
  let escalation =
    Arg.(
      value & opt float 1.0
      & info [ "escalation" ] ~docv:"FACTOR"
          ~doc:"Budget scale factor applied when recomputing cells.")
  in
  let run cache_dir cell_timeout step_budget retry_timed_out escalation =
    let budgets =
      { Engine.cell_timeout; step_budget; retry_timed_out; escalation }
    in
    Engine.serve_worker ?cache_dir ~budgets stdin stdout
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Internal: serve experiment cell batches over stdin/stdout. Spawned \
          by $(b,--workers); speaks a length-prefixed framing of the result \
          store's line format, gated by a code-fingerprint handshake.")
    (exits_0
       Term.(
         const run $ cache_dir $ cell_timeout_arg $ step_budget_arg $ retry
         $ escalation))

(* ---------------- rme experiment ---------------- *)

type run_config = {
  jobs : int;
  workers : int;
  cache_dir : string option;
  progress : bool;
  resume : bool;
  cell_timeout : float option;
  step_budget : int option;
  autosave_cells : int option;
}

(* The store directory: an explicit one beats RME_CACHE_DIR; an empty
   variable counts as unset. *)
let cache_dir_or_env = function
  | Some _ as dir -> dir
  | None -> (
      match Sys.getenv_opt "RME_CACHE_DIR" with None | Some "" -> None | dir -> dir)

let config_of_flags ~jobs ~workers ~cache_dir ~no_cache ~progress ~resume
    ~cell_timeout ~step_budget ~autosave_cells =
  let cache_dir = if no_cache then None else cache_dir_or_env cache_dir in
  if resume && cache_dir = None then
    Error "--resume needs a cache directory (--cache-dir or RME_CACHE_DIR)"
  else
    Ok
      {
        jobs;
        workers = max 0 workers;
        cache_dir;
        (* Without the flag the readout is on exactly when stderr is a
           terminal, so redirected sweep logs stay clean. *)
        progress =
          progress || (try Unix.isatty Unix.stderr with Unix.Unix_error _ -> false);
        resume;
        cell_timeout;
        step_budget;
        autosave_cells;
      }

(* [--resume] gives timed-out cells one more chance with 4x both
   budgets. *)
let budgets c =
  {
    Engine.cell_timeout = c.cell_timeout;
    step_budget = c.step_budget;
    retry_timed_out = c.resume;
    escalation = (if c.resume then 4.0 else 1.0);
  }

(* The worker command line matching a run: this very binary's hidden
   [worker] subcommand, handed the same cache directory (so
   worker-computed results persist on their own) and the same cell
   budgets (so workers time cells out exactly like the coordinator). *)
let worker_argv c =
  let b = budgets c in
  Array.of_list
    ([ Sys.executable_name; "worker" ]
    @ (match c.cache_dir with Some d -> [ "--cache-dir"; d ] | None -> [])
    @ (match b.Engine.cell_timeout with
      | Some s -> [ "--cell-timeout"; string_of_float s ]
      | None -> [])
    @ (match b.Engine.step_budget with
      | Some n -> [ "--step-budget"; string_of_int n ]
      | None -> [])
    @ (if b.Engine.retry_timed_out then [ "--retry-timed-out" ] else [])
    @
    if b.Engine.escalation <> 1.0 then
      [ "--escalation"; string_of_float b.Engine.escalation ]
    else [])

let engine_of_config c =
  let b = budgets c in
  Engine.create ~jobs:c.jobs ?cache_dir:c.cache_dir ~progress:c.progress
    ~workers:c.workers ~worker_argv:(worker_argv c) ?cell_timeout:b.Engine.cell_timeout
    ?step_budget:b.Engine.step_budget ~retry_timed_out:b.Engine.retry_timed_out
    ~escalation:b.Engine.escalation ?autosave_cells:c.autosave_cells
    ~label:"rme experiment" ()

let experiment config ids =
  let module E = Rme_experiments.Experiments in
  let known = List.map (fun (i, _, _) -> i) E.all in
  let ids = if ids = [ "all" ] then known else ids in
  match (config, List.find_opt (fun id -> not (List.mem id known)) ids) with
  | Error msg, _ ->
      Printf.eprintf "rme: %s\n" msg;
      2
  | Ok _, Some id ->
      Printf.eprintf "unknown experiment %S\n" id;
      1
  | Ok c, None ->
      Engine.install_interrupt_handlers ();
      Option.iter
        (fun dir -> if c.resume then Printf.eprintf "%s\n%!" (Engine.resume_banner ~dir))
        c.cache_dir;
      let eng = engine_of_config c in
      let run id =
        let c0 = Engine.counters eng in
        let t0 = Unix.gettimeofday () in
        List.iter Rme_util.Table.print (Option.get (E.run_one ~engine:eng id));
        let c1 = Engine.counters eng in
        Printf.printf
          "(%s completed in %.1fs; j=%d; cells: %d computed (%d remote), %d \
           cached, %d disk)\n\n\
           %!"
          id
          (Unix.gettimeofday () -. t0)
          (Engine.jobs eng)
          (c1.Engine.computed - c0.Engine.computed)
          (c1.Engine.remote - c0.Engine.remote)
          (c1.Engine.cached - c0.Engine.cached)
          (c1.Engine.disk - c0.Engine.disk)
      in
      let code =
        match List.iter run ids with
        | () -> 0
        | exception Engine.Interrupted ->
            prerr_endline
              (if c.cache_dir = None then
                 "rme: interrupted — no cache directory, computed cells are lost"
               else
                 "rme: interrupted — committed cells are saved; re-run with \
                  --resume to continue");
            Engine.exit_interrupted
      in
      (* Stops the worker subprocesses politely (EOF, then reap) rather
         than letting process exit tear the pipes down under them. *)
      Engine.shutdown eng;
      code

let experiment_cmd =
  let ids =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"ID" ~doc:"Experiment ids (e1..f1) or 'all'.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Shard trial cells over $(docv) domains (0 = auto-detect). Tables \
             are bit-identical at any value.")
  in
  let workers =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Shard cell batches over $(docv) worker subprocesses. A \
             fingerprint handshake gates every worker; lost, hung or corrupt \
             workers have their batches requeued, falling back to in-process \
             compute, so tables stay bit-identical to $(b,--workers) 0 at any \
             value.")
  in
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist trial-cell results under $(docv) and reuse them across \
             runs (also via $(b,RME_CACHE_DIR)). Entries are versioned by a \
             code fingerprint; a mismatched or corrupt store is recomputed, \
             never served.")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:"Ignore $(b,--cache-dir) and $(b,RME_CACHE_DIR); compute everything.")
  in
  let progress =
    Arg.(
      value & flag
      & info [ "progress"; "v" ]
          ~doc:
            "Force the live cells-done/ETA stderr line on. Without the flag \
             it is on exactly when stderr is a terminal.")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Continue an interrupted sweep from the cache directory: cells \
             already in the store are served from disk, timed-out cells are \
             recomputed with 4x budgets, and everything else picks up where \
             the previous run stopped.")
  in
  let autosave_cells =
    Arg.(
      value
      & opt (some int) None
      & info [ "autosave-cells" ] ~docv:"N"
          ~doc:
            "Flush the store and manifest every $(docv) committed cells \
             (default 64; at least every 10 seconds regardless).")
  in
  let config =
    Term.(
      const
        (fun jobs workers cache_dir no_cache progress resume cell_timeout
             step_budget autosave_cells ->
          config_of_flags ~jobs ~workers ~cache_dir ~no_cache ~progress ~resume
            ~cell_timeout ~step_budget ~autosave_cells)
      $ jobs $ workers $ cache_dir $ no_cache $ progress $ resume
      $ cell_timeout_arg $ step_budget_arg $ autosave_cells)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate the paper-shaped experiment tables.")
    Term.(const experiment $ config $ ids)

(* ---------------- rme store ---------------- *)

(* Offline inspection and repair of a result-store directory. All four
   verbs resolve the directory the same way the experiment runner
   does: positional DIR beats RME_CACHE_DIR; with neither, exit 2. *)

module Fsck = Rme_store.Fsck

let store_dir_of dir =
  match cache_dir_or_env dir with
  | Some d -> d
  | None ->
      Printf.eprintf "rme store: no directory (pass DIR or set RME_CACHE_DIR)\n";
      exit 2

let pp_shard_class = function
  | Fsck.Clean n -> Printf.sprintf "clean (%d entries)" n
  | Fsck.Stale -> "stale (other fingerprint or future version)"
  | Fsck.Torn { good; dropped } ->
      Printf.sprintf "torn tail (%d entries kept, %d lines dropped)" good dropped
  | Fsck.Corrupt { good; bad } ->
      Printf.sprintf "CORRUPT (%d lines bad, %d salvageable)" bad good
  | Fsck.Unreadable -> "UNREADABLE (bad header or IO error)"

let print_report ~verbose (r : Fsck.report) =
  Printf.printf "shards: %d scanned, %d clean, %d stale, %d torn, %d corrupt, %d unreadable\n"
    r.Fsck.scanned r.Fsck.clean r.Fsck.stale r.Fsck.torn r.Fsck.corrupt
    r.Fsck.unreadable;
  Printf.printf "entries: %d intact" r.Fsck.entries;
  List.iter (fun (s, n) -> Printf.printf ", %s=%d" s n) r.Fsck.sections;
  Printf.printf "; %d lines lost\n" r.Fsck.lost_lines;
  if r.Fsck.healed + r.Fsck.quarantined + r.Fsck.salvaged > 0 then
    Printf.printf "repair: %d healed in place, %d quarantined, %d entries salvaged\n"
      r.Fsck.healed r.Fsck.quarantined r.Fsck.salvaged;
  if verbose then
    List.iter
      (fun (name, c) -> Printf.printf "  %-40s %s\n" name (pp_shard_class c))
      r.Fsck.files

let store_cmd =
  let dir_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"DIR"
          ~doc:"Store directory (default: $(b,RME_CACHE_DIR)).")
  in
  let files_flag =
    Arg.(value & flag & info [ "files" ] ~doc:"List every shard with its class.")
  in
  let fingerprint () = Engine.code_fingerprint () in
  let verify dir files =
    let dir = store_dir_of dir in
    let r = Fsck.scan ~dir ~fingerprint:(fingerprint ()) in
    print_report ~verbose:files r;
    if r.Fsck.torn + r.Fsck.corrupt + r.Fsck.unreadable > 0 then exit 1
  in
  let repair dir files =
    let dir = store_dir_of dir in
    let r = Fsck.repair ~dir ~fingerprint:(fingerprint ()) in
    print_report ~verbose:files r
  in
  let compact dir =
    let dir = store_dir_of dir in
    let merged, entries = Fsck.compact ~dir ~fingerprint:(fingerprint ()) in
    if merged = 0 then print_endline "nothing to compact (fewer than two clean shards)"
    else Printf.printf "compacted %d shards into one (%d entries)\n" merged entries
  in
  let stats dir =
    let dir = store_dir_of dir in
    let r = Fsck.scan ~dir ~fingerprint:(fingerprint ()) in
    print_report ~verbose:true r;
    match Engine.load_manifest ~dir with
    | None -> ()
    | Some m ->
        Printf.printf
          "manifest: %s %s — %d/%d cells done (%d timed out), %.1fs elapsed\n"
          m.Engine.m_label
          (if m.Engine.m_interrupted then "[interrupted]" else "[checkpoint]")
          m.Engine.m_done m.Engine.m_total m.Engine.m_timed_out m.Engine.m_elapsed
  in
  let sub name doc term = Cmd.v (Cmd.info name ~doc) (exits_0 term) in
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect, verify and repair a persistent result store.")
    [
      sub "verify"
        "Classify every shard (read-only); exit 1 if any is torn, corrupt or \
         unreadable."
        Term.(const verify $ dir_arg $ files_flag);
      sub "repair"
        "Heal torn shards in place; quarantine corrupt ones, salvaging their \
         checksum-valid lines."
        Term.(const repair $ dir_arg $ files_flag);
      sub "compact"
        "Merge all clean shards into one (repairs first; crash-safe: the \
         merged shard is published before sources are deleted)."
        Term.(const compact $ dir_arg);
      sub "stats" "Shard classes, entry counts and the run manifest, if any."
        Term.(const stats $ dir_arg);
    ]

(* ---------------- main ---------------- *)

let eval ?argv () =
  let doc =
    "Simulator, algorithms and lower-bound machinery for word-size RMR \
     tradeoffs in recoverable mutual exclusion (Chan, Giakkoupis, Woelfel, \
     PODC 2023)."
  in
  let info = Cmd.info "rme" ~version:"1.0.0" ~doc in
  Cmd.eval' ?argv
    (Cmd.group info
       [
         locks_cmd;
         simulate_cmd;
         adversary_cmd;
         lemma_cmd;
         experiment_cmd;
         store_cmd;
         worker_cmd;
       ])
