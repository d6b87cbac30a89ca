(** The [rme] command-line interface as a library, so tests can drive
    the cmdliner terms in-process.

    Subcommands:
    - [rme locks] — list the lock algorithms
    - [rme simulate --lock km ...] — run a workload through the harness
    - [rme adversary --lock rcas ...] — run the lower-bound construction
    - [rme lemma ...] — solve a Process-Hiding instance
    - [rme experiment e1 .. f1 | all [-j N]] — regenerate the tables,
      optionally sharding trial cells over [N] domains (bit-identical
      output at any [N]); the only way experiments are run.
    - [rme store verify|repair|compact|stats] — inspect a result store.
    - [rme worker] — internal: the subprocess [--workers] spawns. *)

(** The settings of one [rme experiment] run, resolved once from its
    flags. It is all the run's engine and worker command line are
    built from. *)
type run_config = {
  jobs : int;  (** [-j]; [0] = auto-detect. *)
  workers : int;  (** [--workers], clamped at [0]. *)
  cache_dir : string option;
  progress : bool;
  resume : bool;
  cell_timeout : float option;
  step_budget : int option;
  autosave_cells : int option;  (** [None] = the engine's default. *)
}

val config_of_flags :
  jobs:int ->
  workers:int ->
  cache_dir:string option ->
  no_cache:bool ->
  progress:bool ->
  resume:bool ->
  cell_timeout:float option ->
  step_budget:int option ->
  autosave_cells:int option ->
  (run_config, string) result
(** Resolve the experiment flags. The cache directory is off under
    [--no-cache]; otherwise [--cache-dir] beats [RME_CACHE_DIR], and
    with neither it is off. [progress] is forced on by the flag and
    otherwise on exactly when stderr is a terminal. [--resume] without
    a resolved cache directory is an [Error] ([rme experiment] exits
    2 on it). *)

val eval : ?argv:string array -> unit -> int
(** Evaluate the [rme] command group and return the exit code.
    [argv] defaults to [Sys.argv]; [argv.(0)] is the program name. *)
