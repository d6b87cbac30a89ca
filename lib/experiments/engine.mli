(** The multicore experiment engine.

    Experiments decompose into independent {e trial cells} — one harness
    run, fully identified by (lock, n, w, seed, schedule, crash config) —
    or {e adversary cells} (one lower-bound construction run). The engine
    runs the missing cells of a batch across a {!Rme_util.Pool} of
    domains and memoises every result by its cell key, so:

    - tables are assembled by key lookup in canonical enumeration order,
      which makes the output {e bit-identical} to a sequential run
      regardless of how the domains interleave;
    - a cell shared by several experiments (E1/E6 share their n=32
      sweep, E2 feeds E7b and A3, A2's k=w+1 column is E3's default) is
      computed exactly once per engine.

    Every cell derives its own Splitmix scheduling/crash RNG inside
    [Harness.run] from the seeds in its key; no RNG state is shared
    between cells, which is what makes the decomposition sound.

    Below the in-memory memo sits an optional {e persistent} store
    ({!Rme_store.Store}): with a cache directory attached, lookups go
    memory → disk → compute, and every computed result is written
    back (atomic shard renames; two engines may share a directory).
    Disk entries are versioned by {!code_fingerprint}, so a store
    can never serve numbers computed by different code. *)

type t

val create :
  ?jobs:int ->
  ?cache_dir:string ->
  ?progress:bool ->
  ?workers:int ->
  ?worker_argv:string array ->
  ?cell_timeout:float ->
  ?step_budget:int ->
  ?retry_timed_out:bool ->
  ?escalation:float ->
  ?autosave_cells:int ->
  ?autosave_secs:float ->
  ?label:string ->
  unit ->
  t
(** [create ~jobs ()] makes an engine over a fresh pool ([jobs]
    defaults to 1 — sequential; [0] means auto-detect) and an empty
    memo cache. [cache_dir] attaches a persistent result store under
    the memo (created on demand; unusable directories degrade to
    uncached operation with a warning, never an error). [progress]
    enables a live cells-done/ETA line on stderr during {!prefetch}.

    [workers > 0] attaches a {!Rme_dist.Coordinator} of that many
    worker subprocesses as a third lookup tier (memory → disk →
    workers → compute). [worker_argv] is the worker command line and
    is required when [workers > 0] ([Invalid_argument] otherwise). A
    worker may hold one batch for a deadline derived from
    [cell_timeout] (a flat 300 s without one) before it is declared
    hung. Worker failures of any kind degrade to in-process compute;
    they can never change results (see {!counters}).

    {b Budgets}: [cell_timeout] (wall-clock seconds) and
    [step_budget] (scheduler turns, overriding the harness's [n^2]
    formula) bound each trial cell; a cell exceeding either records an
    explicit timed-out result instead of hanging the sweep.
    [retry_timed_out] (what [--resume] sets) treats stored timed-out
    results as misses and recomputes them with both budgets scaled by
    [escalation] (default 1.0).

    {b Autosave}: with a store attached, committed results are
    flushed — and the run manifest rewritten — every [autosave_cells]
    cells (default 64) or [autosave_secs] seconds (default 10),
    whichever trips first, bounding what a SIGKILL can lose. [label]
    names the sweep in the manifest.

    Every setting is fixed for the engine's lifetime: a different
    configuration is a different engine. *)

val jobs : t -> int

(** Worker slots of the attached coordinator; [0] when none. *)
val workers : t -> int
val shutdown : t -> unit
(** Flush the store (if any) and checkpoint the manifest, stop the
    worker processes and join the pool's domains. Idempotent. *)

val cache_dir : t -> string option
(** The attached store's directory, if a store is attached. *)

val store_stats : t -> Rme_store.Store.stats option

val dist_stats : t -> Rme_dist.Coordinator.stats option
(** Worker-tier telemetry (spawns, losses, requeues, remote/unserved
    cells), when a coordinator is attached. *)

(** {1 Budgets} *)

type budgets = {
  cell_timeout : float option;  (** wall-clock seconds per cell. *)
  step_budget : int option;
      (** scheduler turns per cell; [None] = the harness's
          {!Rme_sim.Harness.default_step_budget} formula. *)
  retry_timed_out : bool;
      (** treat stored timed-out results as misses and recompute. *)
  escalation : float;  (** budget scale factor applied on retry runs. *)
}

val no_budgets : budgets
(** No wall-clock bound, formula step budget, no retry, scale 1.0. *)

(** {1 Interruption}

    Cooperative cancellation for long sweeps. The first SIGINT/SIGTERM
    sets a process-wide flag; {!prefetch} polls it between commits,
    stops handing out cells, drains what is in flight (every finished
    cell is still committed), checkpoints the store and manifest, and
    raises {!Interrupted}. A second signal hard-exits (130/143). *)

exception Interrupted
(** Raised out of {!prefetch}/{!get} after a checkpoint; every result
    computed before the interrupt is flushed and a later run with the
    same cache directory resumes where this one stopped. *)

val exit_interrupted : int
(** The exit code ([75], [EX_TEMPFAIL]) [rme experiment] uses after
    catching {!Interrupted}: stopped cleanly, state saved, safe to
    re-run. *)

val install_interrupt_handlers : unit -> unit
(** Route SIGINT and SIGTERM into {!request_interrupt} (second signal
    hard-exits). No-op on platforms without these signals. *)

val request_interrupt : unit -> unit
(** Set the interrupt flag by hand — what the signal handlers and the
    in-process tests call. *)

val interrupted : unit -> bool
val clear_interrupt : unit -> unit

(** {1 Run manifests}

    A sweep with a store attached maintains
    [<cache-dir>/manifest.json] — a small progress summary rewritten
    atomically at every autosave and checkpoint. The {e store} is the
    source of truth for resuming; the manifest is for humans and
    tooling ([--resume] banners, CI assertions). *)

type manifest = {
  m_fingerprint : string;
  m_label : string;
  m_total : int;  (** cells requested by the interrupted sweep. *)
  m_done : int;  (** of which committed (memo, disk or computed). *)
  m_timed_out : int;
  m_elapsed : float;
  m_interrupted : bool;
}

val manifest_path : dir:string -> string
val load_manifest : dir:string -> manifest option
(** [None] when absent or unreadable — a missing manifest never blocks
    a resume; the store alone decides what is left to compute. *)

val resume_banner : dir:string -> string
(** A one-line human summary of what resuming from [dir] will do
    (fresh start / fingerprint mismatch / N of M cells to go). *)

(** {1 Harness trial cells} *)

type cell = {
  lock : Rme_sim.Lock_intf.factory;
  n : int;
  width : int;
  model : Rme_memory.Rmr.model;
  seed : int;  (** scheduling seed ([Harness.Random_policy]). *)
  superpassages : int;
  crashes : Rme_sim.Harness.crash_policy;
  allow_cs_crash : bool;
  max_crashes : int;
}

val cell :
  ?superpassages:int ->
  ?crashes:Rme_sim.Harness.crash_policy ->
  ?allow_cs_crash:bool ->
  ?max_crashes:int ->
  seed:int ->
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory ->
  cell
(** Defaults: 1 super-passage, no crashes, no CS crashes, at most 1
    crash per process — the harness defaults. *)

type cell_result = {
  ok : bool;
  timed_out : bool;
      (** the run was cut short by a cell budget (wall-clock or step);
          the numbers below cover only the steps taken. Stored entries
          written before budgets existed decode as [false]. *)
  max_passage_rmr : int;
  mean_passage_rmr : float;
  total_crashes : int;
  total_rmrs : int;  (** summed over processes. *)
  cs_entries : int;  (** summed over processes. *)
  max_bypass : int;  (** worst over processes. *)
}

val prefetch : t -> cell list -> unit
(** Compute every not-yet-memoised cell of the batch in parallel
    (duplicate keys within the batch are computed once; keys found in
    the persistent store are loaded instead of computed). Updates the
    {!counters}: [computed] by the number of runs performed, [disk] by
    the number of keys served from the store, [cached] by the number
    of requests served from the in-memory memo. *)

val get : t -> cell -> cell_result
(** Memo lookup (memory, then store); computes inline (sequentially)
    on a miss. Does not touch the [cached] counter — experiments
    [prefetch] their whole batch first and use [get] only to format
    tables. *)

(** {1 Adversary cells} *)

type adv_cell = {
  a_lock : Rme_sim.Lock_intf.factory;
  a_n : int;
  a_width : int;
  a_model : Rme_memory.Rmr.model;
  a_k : int option;  (** contention threshold; [None] = default. *)
}

val adv_cell :
  ?k:int ->
  n:int ->
  width:int ->
  model:Rme_memory.Rmr.model ->
  Rme_sim.Lock_intf.factory ->
  adv_cell

type adv_result = { rounds : int; bound : float; survivors : int }

val prefetch_adv : t -> adv_cell list -> unit
val get_adv : t -> adv_cell -> adv_result

(** {1 Generic parallel map} *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over the engine's pool, without
    memoisation — for experiment stages that are not harness runs
    (E4's lemma families, A3's solo machine runs). *)

(** {1 Counters} *)

type counters = { computed : int; cached : int; disk : int; remote : int }

val counters : t -> counters
(** Cumulative cells computed / served from the in-memory memo /
    served from the persistent store since the engine was created.
    Deterministic for a given sequence of [prefetch] batches and a
    given store state — independent of [jobs]. [remote] counts the
    subset of [computed] performed by worker processes; unlike the
    others it depends on worker health and is telemetry, not part of
    the deterministic contract. *)

(** {1 Persistence} *)

val code_fingerprint : unit -> string
(** The fingerprint versioning every store entry: a digest of an
    explicit schema version (bumped by convention whenever harness,
    lock or adversary semantics change) and the lock registry's
    behavioural signature (names, recoverability, width requirements).
    A store written under a different fingerprint is skipped — results
    are recomputed rather than silently served stale. *)

val cell_key_string : cell -> string
(** The canonical serialised key of a trial cell — the identity a
    store entry (or a future remote shard request) is filed under. *)

val cell_result_encode : cell_result -> string
val cell_result_decode : string -> cell_result option
(** Exact round-trip: [cell_result_decode (cell_result_encode r) = Some r]
    (floats are encoded in hex notation). Malformed input is [None]. *)

val cell_of_key_string : string -> cell option
(** Decode a canonical cell key back into a computable cell (the lock
    factory is recovered by name with {!Rme_locks.Registry.find},
    which also knows A1's forced-arity KM variants) — what a worker
    process does with the keys the coordinator streams to it. Total;
    inverse of {!cell_key_string} up to key identity:
    [cell_of_key_string (cell_key_string c)] is a cell with the same
    key. *)

val adv_key_string : adv_cell -> string
(** Keyed on the {e effective} contention threshold, like the memo. *)

val adv_result_encode : adv_result -> string
val adv_result_decode : string -> adv_result option

val adv_cell_of_key_string : string -> adv_cell option
(** As {!cell_of_key_string}, for adversary cells. The decoded cell
    carries the effective threshold explicitly. *)

(** {1 Multi-process worker sharding} *)

val compute_encoded :
  ?budgets:budgets -> section:string -> key:string -> unit -> string option
(** The worker-side dispatch: decode the key of the given section,
    compute the cell (under [budgets], if given), encode the result.
    [None] for undecodable keys or unknown sections — reported back to
    the coordinator as unservable, which then computes in-process. *)

val serve_worker :
  ?cache_dir:string -> ?budgets:budgets -> in_channel -> out_channel -> unit
(** Run the {!Rme_dist.Worker} loop over the given channels (the
    hidden [rme worker] entry point). With [cache_dir], the worker
    consults and feeds that store itself
    (flushed after every batch), so worker-computed results persist
    even if the coordinator is lost. [budgets] mirrors the
    coordinator's cell budgets — under [retry_timed_out] the worker's
    own disk tier refuses to serve stored timed-out results. *)
