module H = Rme_sim.Harness
module Lock_intf = Rme_sim.Lock_intf
module Rmr = Rme_memory.Rmr
module Pool = Rme_util.Pool
module Intset = Rme_util.Intset
module Fingerprint = Rme_util.Fingerprint
module A = Rme_core.Adversary
module Store = Rme_store.Store
module Codec = Rme_store.Codec
module Registry = Rme_locks.Registry
module Dist = Rme_dist.Coordinator
module Fault = Rme_util.Fault
module Json = Rme_util.Json

(* ------------------------------------------------------------------ *)
(* Harness trial cells. *)

type cell = {
  lock : Lock_intf.factory;
  n : int;
  width : int;
  model : Rmr.model;
  seed : int;
  superpassages : int;
  crashes : H.crash_policy;
  allow_cs_crash : bool;
  max_crashes : int;
}

let cell ?(superpassages = 1) ?(crashes = H.No_crashes) ?(allow_cs_crash = false)
    ?(max_crashes = 1) ~seed ~n ~width ~model lock =
  { lock; n; width; model; seed; superpassages; crashes; allow_cs_crash; max_crashes }

type cell_result = {
  ok : bool;
  timed_out : bool;
  max_passage_rmr : int;
  mean_passage_rmr : float;
  total_crashes : int;
  total_rmrs : int;
  cs_entries : int;
  max_bypass : int;
}

(* Per-cell budgets. [cell_timeout] is wall-clock seconds per cell,
   [step_budget] overrides the harness's n^2 formula; either [None]
   keeps the harness default. A cell exceeding its budget records an
   explicit timed-out result — the sweep completes instead of hanging.
   [retry_timed_out] (set by --resume) treats a stored timed-out
   result as a miss, recomputing it with both budgets scaled by
   [escalation]. *)
type budgets = {
  cell_timeout : float option;
  step_budget : int option;
  retry_timed_out : bool;
  escalation : float;
}

let no_budgets =
  { cell_timeout = None; step_budget = None; retry_timed_out = false; escalation = 1.0 }

(* The memo key is the cell with the factory replaced by its name
   (factories are closures; names are unique, including the
   [katzan-morrison-b<arity>] variants). Everything else is ints,
   floats and lists, so structural equality and [Hashtbl.hash] apply. *)
type key = {
  k_lock : string;
  k_n : int;
  k_width : int;
  k_model : Rmr.model;
  k_seed : int;
  k_sp : int;
  k_crashes : H.crash_policy;
  k_cs_crash : bool;
  k_max_crashes : int;
}

let key_of_cell c =
  {
    k_lock = c.lock.Lock_intf.name;
    k_n = c.n;
    k_width = c.width;
    k_model = c.model;
    k_seed = c.seed;
    k_sp = c.superpassages;
    k_crashes = c.crashes;
    k_cs_crash = c.allow_cs_crash;
    k_max_crashes = c.max_crashes;
  }

let compute_cell ?(budgets = no_budgets) c =
  (* Fault injection: an artificially slow cell, for exercising
     timeouts and mid-sweep interruption deterministically. The
     argument is the delay in milliseconds (default 50). *)
  if Fault.armed "slow-cell" then
    Unix.sleepf (float_of_int (max 0 (Option.value ~default:50 (Fault.param "slow-cell"))) /. 1000.0);
  let scale x =
    max 1 (int_of_float (Float.round (float_of_int x *. budgets.escalation)))
  in
  let step_budget =
    scale (Option.value ~default:(H.default_step_budget ~n:c.n) budgets.step_budget)
  in
  let deadline =
    Option.map
      (fun s -> Unix.gettimeofday () +. (s *. budgets.escalation))
      budgets.cell_timeout
  in
  let cfg =
    {
      (H.default_config ~n:c.n ~width:c.width c.model) with
      H.superpassages = c.superpassages;
      policy = H.Random_policy c.seed;
      crashes = c.crashes;
      allow_cs_crash = c.allow_cs_crash;
      max_crashes_per_process = c.max_crashes;
      step_budget;
      deadline;
    }
  in
  let r = H.run cfg c.lock in
  {
    ok = r.H.ok;
    timed_out = r.H.timed_out;
    max_passage_rmr = r.H.max_passage_rmr;
    mean_passage_rmr = r.H.mean_passage_rmr;
    total_crashes = r.H.total_crashes;
    total_rmrs =
      Array.fold_left (fun acc (p : H.proc_stats) -> acc + p.H.total_rmrs) 0 r.H.procs;
    cs_entries =
      Array.fold_left (fun acc (p : H.proc_stats) -> acc + p.H.cs_entries) 0 r.H.procs;
    max_bypass =
      Array.fold_left (fun acc (p : H.proc_stats) -> max acc p.H.max_bypass) 0 r.H.procs;
  }

(* ------------------------------------------------------------------ *)
(* Adversary cells. *)

type adv_cell = {
  a_lock : Lock_intf.factory;
  a_n : int;
  a_width : int;
  a_model : Rmr.model;
  a_k : int option;
}

let adv_cell ?k ~n ~width ~model lock =
  { a_lock = lock; a_n = n; a_width = width; a_model = model; a_k = k }

type adv_result = { rounds : int; bound : float; survivors : int }

type adv_key = {
  ak_lock : string;
  ak_n : int;
  ak_width : int;
  ak_model : Rmr.model;
  ak_k : int;
}

let adv_config c =
  let cfg = A.default_config ~n:c.a_n ~width:c.a_width c.a_model in
  match c.a_k with Some k -> { cfg with A.k } | None -> cfg

(* Key on the *effective* threshold so that an explicit [k] equal to the
   default (A2's first column vs E3) shares the memo entry. *)
let adv_key_of c =
  {
    ak_lock = c.a_lock.Lock_intf.name;
    ak_n = c.a_n;
    ak_width = c.a_width;
    ak_model = c.a_model;
    ak_k = (adv_config c).A.k;
  }

let compute_adv c =
  let r = A.run (adv_config c) c.a_lock in
  {
    rounds = r.A.rounds_completed;
    bound = r.A.predicted_lower_bound;
    survivors = Intset.cardinal r.A.survivors;
  }

(* ------------------------------------------------------------------ *)
(* Persistent serialisation: canonical strings for keys and results
   (the store's on-disk line format; also the wire format a future
   multi-process shard would speak). Keys never need decoding — disk
   lookup works by encoding the query key — but results round-trip
   exactly (floats in hex notation), keeping warm-store tables
   byte-identical to computed ones. *)

let cell_section = "cell"
let adv_section = "adv"

let cell_key_string_of_key (k : key) =
  Codec.fields
    [
      ("lock", Codec.escape k.k_lock);
      ("n", string_of_int k.k_n);
      ("w", string_of_int k.k_width);
      ("model", Codec.model_enc k.k_model);
      ("seed", string_of_int k.k_seed);
      ("sp", string_of_int k.k_sp);
      ("crashes", Codec.crash_policy_enc k.k_crashes);
      ("cs_crash", string_of_bool k.k_cs_crash);
      ("max_crashes", string_of_int k.k_max_crashes);
    ]

let cell_key_string c = cell_key_string_of_key (key_of_cell c)

let cell_result_encode (r : cell_result) =
  Codec.fields
    [
      ("ok", string_of_bool r.ok);
      ("max", string_of_int r.max_passage_rmr);
      ("mean", Codec.float_enc r.mean_passage_rmr);
      ("crashes", string_of_int r.total_crashes);
      ("rmrs", string_of_int r.total_rmrs);
      ("cs", string_of_int r.cs_entries);
      ("bypass", string_of_int r.max_bypass);
      ("to", string_of_bool r.timed_out);
    ]

let ( let* ) = Option.bind

let cell_result_decode s =
  let* fs = Codec.parse_fields s in
  let get f k = Option.bind (Codec.lookup fs k) f in
  let* ok = get Codec.bool_dec "ok" in
  let* max_passage_rmr = get Codec.int_dec "max" in
  let* mean_passage_rmr = get Codec.float_dec "mean" in
  let* total_crashes = get Codec.int_dec "crashes" in
  let* total_rmrs = get Codec.int_dec "rmrs" in
  let* cs_entries = get Codec.int_dec "cs" in
  let* max_bypass = get Codec.int_dec "bypass" in
  (* Optional: absent in entries written before the field existed —
     those were computed without budgets, hence never timed out. *)
  let timed_out = Option.value ~default:false (get Codec.bool_dec "to") in
  Some
    {
      ok;
      timed_out;
      max_passage_rmr;
      mean_passage_rmr;
      total_crashes;
      total_rmrs;
      cs_entries;
      max_bypass;
    }

let adv_key_string_of_key (k : adv_key) =
  Codec.fields
    [
      ("lock", Codec.escape k.ak_lock);
      ("n", string_of_int k.ak_n);
      ("w", string_of_int k.ak_width);
      ("model", Codec.model_enc k.ak_model);
      ("k", string_of_int k.ak_k);
    ]

let adv_key_string c = adv_key_string_of_key (adv_key_of c)

let adv_result_encode (r : adv_result) =
  Codec.fields
    [
      ("rounds", string_of_int r.rounds);
      ("bound", Codec.float_enc r.bound);
      ("survivors", string_of_int r.survivors);
    ]

let adv_result_decode s =
  let* fs = Codec.parse_fields s in
  let get f k = Option.bind (Codec.lookup fs k) f in
  let* rounds = get Codec.int_dec "rounds" in
  let* bound = get Codec.float_dec "bound" in
  let* survivors = get Codec.int_dec "survivors" in
  Some { rounds; bound; survivors }

(* Key decoding — what a worker process does with the key strings the
   coordinator streams to it. The store itself never decodes keys
   (disk lookup encodes the query); workers must, to reconstruct the
   cell they are asked to compute. The lock factory is recovered from
   the registry by name, so a key naming an unknown lock (never
   produced by same-fingerprint code, but the wire is untrusted)
   decodes to [None] rather than raising. *)

let cell_of_key_string s =
  let* fs = Codec.parse_fields s in
  let get f k = Option.bind (Codec.lookup fs k) f in
  let* lock_name = Option.bind (Codec.lookup fs "lock") Codec.unescape in
  let* lock = Registry.find lock_name in
  let* n = get Codec.int_dec "n" in
  let* width = get Codec.int_dec "w" in
  let* model = get Codec.model_dec "model" in
  let* seed = get Codec.int_dec "seed" in
  let* superpassages = get Codec.int_dec "sp" in
  let* crashes = get Codec.crash_policy_dec "crashes" in
  let* allow_cs_crash = get Codec.bool_dec "cs_crash" in
  let* max_crashes = get Codec.int_dec "max_crashes" in
  Some { lock; n; width; model; seed; superpassages; crashes; allow_cs_crash; max_crashes }

let adv_cell_of_key_string s =
  let* fs = Codec.parse_fields s in
  let get f k = Option.bind (Codec.lookup fs k) f in
  let* lock_name = Option.bind (Codec.lookup fs "lock") Codec.unescape in
  let* a_lock = Registry.find lock_name in
  let* a_n = get Codec.int_dec "n" in
  let* a_width = get Codec.int_dec "w" in
  let* a_model = get Codec.model_dec "model" in
  let* k = get Codec.int_dec "k" in
  Some { a_lock; a_n; a_width; a_model; a_k = Some k }

(* The worker-side dispatch: encoded key in, encoded result out.
   Total — an undecodable or unknown-section key is reported back as
   unservable (the coordinator computes it in-process) instead of
   taking the worker down. *)
let compute_encoded ?budgets ~section ~key () =
  if String.equal section cell_section then
    Option.map
      (fun c -> cell_result_encode (compute_cell ?budgets c))
      (cell_of_key_string key)
  else if String.equal section adv_section then
    Option.map (fun c -> adv_result_encode (compute_adv c)) (adv_cell_of_key_string key)
  else None

(* The code fingerprint versioning every store entry. [schema_version]
   is the convention-bumped part: raise it whenever harness, lock or
   adversary semantics change in a way that alters results. The
   registry signature invalidates automatically when locks are added,
   renamed or change their width requirements. *)
let schema_version = "rme-results-1"

let code_fingerprint () =
  let lock_sig (f : Lock_intf.factory) =
    Printf.sprintf "%s:%b:%d:%d:%d" f.Lock_intf.name f.Lock_intf.recoverable
      (f.Lock_intf.min_width ~n:2)
      (f.Lock_intf.min_width ~n:64)
      (f.Lock_intf.min_width ~n:4096)
  in
  Fingerprint.of_strings (schema_version :: List.map lock_sig Registry.all)

(* ------------------------------------------------------------------ *)
(* Graceful interruption. One process-wide flag: the first
   SIGINT/SIGTERM requests a stop (prefetch notices between cells,
   drains what is in flight, flushes store + manifest and raises
   {!Interrupted}); a second signal hard-exits with the conventional
   128+signo code for users who really mean it. *)

exception Interrupted

let exit_interrupted = 75 (* EX_TEMPFAIL: stopped cleanly, state saved *)

let interrupt_flag = Atomic.make false
let interrupt_signals = Atomic.make 0
let request_interrupt () = Atomic.set interrupt_flag true
let interrupted () = Atomic.get interrupt_flag

let clear_interrupt () =
  Atomic.set interrupt_flag false;
  Atomic.set interrupt_signals 0

let install_interrupt_handlers () =
  let handle signo =
    if Atomic.fetch_and_add interrupt_signals 1 = 0 then
      Atomic.set interrupt_flag true
    else Unix._exit (if signo = Sys.sigterm then 143 else 130)
  in
  List.iter
    (fun s ->
      try Sys.set_signal s (Sys.Signal_handle handle)
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ------------------------------------------------------------------ *)
(* The engine. *)

type counters = { computed : int; cached : int; disk : int; remote : int }

(* The configuration fields are fixed at [create]; only [store] may
   change afterwards, dropping to [None] when a flush fails. *)
type t = {
  pool : Pool.t;
  guard : Mutex.t;
  memo : (key, cell_result) Hashtbl.t;
  adv_memo : (adv_key, adv_result) Hashtbl.t;
  mutable store : Store.t option;
  dist : Dist.t option;
  progress : bool;
  budgets : budgets;
  label : string;
  autosave_cells : int;
  autosave_secs : float;
  mutable last_autosave : float;
  mutable since_autosave : int;
  started : float;
  mutable n_computed : int;
  mutable n_cached : int;
  mutable n_disk : int;
  mutable n_remote : int;
  (* Manifest counters: cells requested / resolved / timed out across
     the engine's lifetime (memo re-hits of shared cells included —
     these describe sweep progress, not distinct keys). *)
  mutable u_total : int;
  mutable u_done : int;
  mutable u_timed : int;
}

let open_store dir =
  try Some (Store.open_ ~dir ~fingerprint:(code_fingerprint ()))
  with e ->
    Printf.eprintf "[rme] warning: cannot open result store %s (%s); running uncached\n%!"
      dir (Printexc.to_string e);
    None

(* The batch deadline derives from the cell budget: a batch is at most
   [Pool.auto_chunk]-capped (64) cells, so a worker honouring its
   per-cell timeout answers within ~64x the budget plus handshake
   slack; only with no budget at all does the flat 300 s default
   apply. *)
let make_dist ?worker_argv ?cell_timeout ~workers () =
  if workers <= 0 then None
  else
    let argv =
      match worker_argv with
      | Some a -> a
      | None -> invalid_arg "Engine.create: ~workers > 0 needs ~worker_argv"
    in
    let batch_deadline =
      match cell_timeout with
      | Some ct -> Float.max 60.0 (10.0 +. (ct *. 64.0))
      | None -> 300.0
    in
    Some
      (Dist.create
         (Dist.default_config ~batch_deadline ~workers ~argv
            ~fingerprint:(code_fingerprint ()) ()))

let create ?(jobs = 1) ?cache_dir ?(progress = false) ?(workers = 0) ?worker_argv
    ?cell_timeout ?step_budget ?(retry_timed_out = false) ?(escalation = 1.0)
    ?(autosave_cells = 64) ?(autosave_secs = 10.0) ?(label = "sweep") () =
  let now = Unix.gettimeofday () in
  {
    pool = Pool.create ~jobs;
    guard = Mutex.create ();
    memo = Hashtbl.create 256;
    adv_memo = Hashtbl.create 64;
    store = Option.bind cache_dir open_store;
    dist = make_dist ?worker_argv ?cell_timeout ~workers ();
    progress;
    budgets = { cell_timeout; step_budget; retry_timed_out; escalation };
    label;
    autosave_cells = max 1 autosave_cells;
    autosave_secs = Float.max 0.1 autosave_secs;
    last_autosave = now;
    since_autosave = 0;
    started = now;
    n_computed = 0;
    n_cached = 0;
    n_disk = 0;
    n_remote = 0;
    u_total = 0;
    u_done = 0;
    u_timed = 0;
  }

let jobs t = Pool.jobs t.pool
let workers t = match t.dist with None -> 0 | Some d -> (Dist.config d).Dist.workers
let cache_dir t = Option.map Store.dir t.store
let store_stats t = Option.map Store.stats t.store
let dist_stats t = Option.map Dist.stats t.dist

(* A store failure must never take the run down: fall back to
   uncached operation (results stay correct, just recomputed). *)
let safe_flush t =
  match t.store with
  | None -> ()
  | Some s -> (
      try Store.flush s
      with e ->
        Printf.eprintf
          "[rme] warning: result store flush failed (%s); caching disabled\n%!"
          (Printexc.to_string e);
        t.store <- None)

(* ------------------------------------------------------------------ *)
(* The run manifest: a small JSON summary written atomically next to
   the shards at every autosave and checkpoint, so an interrupted or
   SIGKILLed sweep leaves behind how far it got. [--resume] reads it
   back for validation and reporting — the store itself remains the
   source of truth for which cells are done. Best effort: a manifest
   write failure must never take a run down. *)

let manifest_file = "manifest.json"
let manifest_path ~dir = Filename.concat dir manifest_file

type manifest = {
  m_fingerprint : string;
  m_label : string;
  m_total : int;
  m_done : int;
  m_timed_out : int;
  m_elapsed : float;
  m_interrupted : bool;
}

(* Caller holds [t.guard]. Skipped until the engine has seen work, so
   an incidental open (stats, a single lookup) does not clobber the
   previous sweep's manifest with zeros. *)
let save_manifest t ~interrupted =
  match t.store with
  | Some s when t.u_total > 0 -> (
      try
        let doc =
          Json.Obj
            [
              ("schema", Json.num_int 1);
              ("fingerprint", Json.Str (Store.fingerprint s));
              ("label", Json.Str t.label);
              ("total_cells", Json.num_int t.u_total);
              ("completed_cells", Json.num_int t.u_done);
              ("timed_out_cells", Json.num_int t.u_timed);
              ("elapsed_s", Json.Num (Unix.gettimeofday () -. t.started));
              ("interrupted", Json.Bool interrupted);
            ]
        in
        let path = manifest_path ~dir:(Store.dir s) in
        let tmp = path ^ ".tmp" in
        let oc = open_out_bin tmp in
        (try output_string oc (Json.to_string doc)
         with e ->
           close_out_noerr oc;
           raise e);
        close_out oc;
        Sys.rename tmp path
      with _ -> ())
  | _ -> ()

let load_manifest ~dir =
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  in
  match read (manifest_path ~dir) with
  | exception Sys_error _ -> None
  | s -> (
      match Json.of_string s with
      | Error _ -> None
      | Ok doc -> (
          let str k = Option.bind (Json.member k doc) Json.to_str in
          let int k =
            match Option.bind (Json.member k doc) Json.to_float with
            | Some f -> int_of_float f
            | None -> 0
          in
          let flo k =
            Option.value ~default:0.0 (Option.bind (Json.member k doc) Json.to_float)
          in
          let boolean k =
            match Json.member k doc with Some (Json.Bool b) -> b | _ -> false
          in
          match str "fingerprint" with
          | None -> None
          | Some fp ->
              Some
                {
                  m_fingerprint = fp;
                  m_label = Option.value ~default:"" (str "label");
                  m_total = int "total_cells";
                  m_done = int "completed_cells";
                  m_timed_out = int "timed_out_cells";
                  m_elapsed = flo "elapsed_s";
                  m_interrupted = boolean "interrupted";
                }))

let resume_banner ~dir =
  match load_manifest ~dir with
  | None ->
      Printf.sprintf
        "[rme] --resume: no manifest under %s; stored cells are still reused" dir
  | Some m ->
      if m.m_fingerprint <> code_fingerprint () then
        Printf.sprintf
          "[rme] --resume: manifest under %s was written by different code; its \
           results are stale and will be recomputed"
          dir
      else
        Printf.sprintf "[rme] resuming %s: %d/%d cells committed%s, %.1fs spent%s"
          m.m_label m.m_done m.m_total
          (if m.m_timed_out > 0 then
             Printf.sprintf " (%d timed out, retrying with escalated budgets)"
               m.m_timed_out
           else "")
          m.m_elapsed
          (if m.m_interrupted then " before interruption" else "")

(* Caller holds [t.guard]. The autosave cadence bounds how much a
   SIGKILL can lose: at most [autosave_cells] committed cells or
   [autosave_secs] seconds of them, whichever trips first. *)
let maybe_autosave t =
  match t.store with
  | None -> ()
  | Some _ ->
      let now = Unix.gettimeofday () in
      if
        t.since_autosave >= t.autosave_cells
        || now -. t.last_autosave >= t.autosave_secs
      then begin
        t.since_autosave <- 0;
        t.last_autosave <- now;
        safe_flush t;
        save_manifest t ~interrupted:false
      end

let checkpoint t ~interrupted =
  Mutex.lock t.guard;
  t.since_autosave <- 0;
  t.last_autosave <- Unix.gettimeofday ();
  safe_flush t;
  save_manifest t ~interrupted;
  Mutex.unlock t.guard

(* After an interrupt the manifest keeps saying so. *)
let shutdown t =
  checkpoint t ~interrupted:(interrupted ());
  Option.iter Dist.shutdown t.dist;
  Pool.shutdown t.pool

let counters t =
  Mutex.lock t.guard;
  let c =
    {
      computed = t.n_computed;
      cached = t.n_cached;
      disk = t.n_disk;
      remote = t.n_remote;
    }
  in
  Mutex.unlock t.guard;
  c

let progress_guard = Mutex.create ()

let pp_eta seconds =
  if seconds >= 90.0 then Printf.sprintf "%.0fm%02.0fs" (seconds /. 60.0) (Float.rem seconds 60.0)
  else Printf.sprintf "%.0fs" seconds

(* Compute the batch's missing unique keys — memory first, then the
   persistent store, then worker processes, then in parallel over the
   pool. The work list preserves first-occurrence order, so the pool
   sees cells in canonical order; results merge by key, so the memo
   content is independent of domain interleaving.

   Each result is committed (memo + store + counters, under the
   guard) the moment it exists, and the store autosaves on its
   cadence — so an interruption or a crash can only cost cells still
   in flight, never finished ones. An active interruption makes the
   remaining cells no-ops; [Pool.map_array] still joins every started
   task and [Dist.run] drains its in-flight batches, which is the
   "drain, flush, then stop" of graceful shutdown. *)
let prefetch_memo t table key_of compute ~section ~enc_key ~enc_res ~dec_res ~timed
    cells =
  if interrupted () then begin
    checkpoint t ~interrupted:true;
    raise Interrupted
  end;
  let cells = Array.of_list cells in
  let total = Array.length cells in
  Mutex.lock t.guard;
  t.u_total <- t.u_total + total;
  let seen = Hashtbl.create 16 in
  let missing = ref [] in
  Array.iter
    (fun c ->
      let k = key_of c in
      if not (Hashtbl.mem table k) && not (Hashtbl.mem seen k) then begin
        Hashtbl.add seen k ();
        missing := (k, c) :: !missing
      end)
    cells;
  let missing = List.rev !missing in
  let n_missing = List.length missing in
  (* Disk phase: a stored value that fails to decode is corruption —
     treat as a miss and recompute (the fresh value overwrites it).
     Under --resume ([retry_timed_out]), a stored timed-out result is
     not a final value either: recompute with escalated budgets. *)
  let disk_hits = ref 0 in
  let retry = t.budgets.retry_timed_out in
  let work =
    List.filter
      (fun (k, _) ->
        match t.store with
        | None -> true
        | Some s -> (
            match Store.find s ~section (enc_key k) with
            | None -> true
            | Some v -> (
                match dec_res v with
                | Some r when retry && timed r -> true
                | Some r ->
                    Hashtbl.replace table k r;
                    incr disk_hits;
                    false
                | None -> true)))
      missing
  in
  let work = Array.of_list work in
  let nw = Array.length work in
  let n_memo = total - n_missing in
  let n_disk = !disk_hits in
  t.n_cached <- t.n_cached + n_memo;
  t.n_disk <- t.n_disk + n_disk;
  t.u_done <- t.u_done + n_memo + n_disk;
  Mutex.unlock t.guard;
  (* Compute phase, with a live progress line when asked for one. *)
  let show = t.progress && nw > 0 in
  let done_count = Atomic.make 0 in
  let t0 = Unix.gettimeofday () in
  let last_printed = ref neg_infinity in
  let report ~final =
    let now = Unix.gettimeofday () in
    Mutex.lock progress_guard;
    if final || now -. !last_printed >= 0.1 then begin
      last_printed := now;
      let d = Atomic.get done_count in
      let eta =
        if d > 0 && d < nw then
          Printf.sprintf " eta %s" (pp_eta ((now -. t0) /. float_of_int d *. float_of_int (nw - d)))
        else ""
      in
      Printf.eprintf "\r[rme] %s cells %d/%d (computed %d/%d, disk %d, memo %d)%s%s%!"
        (if section = adv_section then "adversary" else "trial")
        (total - nw + d)
        total d nw n_disk n_memo eta
        (if final then "\n" else "")
    end;
    Mutex.unlock progress_guard
  in
  let served_remote = Array.make nw false in
  let commit ~remote i r =
    Mutex.lock t.guard;
    let k, _ = work.(i) in
    Hashtbl.replace table k r;
    (match t.store with
    | None -> ()
    | Some s -> Store.add s ~section ~key:(enc_key k) ~value:(enc_res r));
    t.n_computed <- t.n_computed + 1;
    if remote then t.n_remote <- t.n_remote + 1;
    t.u_done <- t.u_done + 1;
    if timed r then t.u_timed <- t.u_timed + 1;
    t.since_autosave <- t.since_autosave + 1;
    maybe_autosave t;
    Mutex.unlock t.guard;
    if show then begin
      Atomic.incr done_count;
      report ~final:false
    end
  in
  (* Worker tier: ship the missing keys to worker processes over the
     store wire format. Whatever they cannot serve — workers lost,
     entry reported unservable, or a value that fails to decode —
     falls through to the in-process pool below, so distribution can
     only relocate work, never change results. *)
  (match t.dist with
  | Some d when nw > 0 ->
      let tasks = Array.map (fun (k, _) -> (section, enc_key k)) work in
      ignore
        (Dist.run d ~tasks
           ~on_result:(fun i v ->
             match dec_res v with
             | Some r ->
                 served_remote.(i) <- true;
                 commit ~remote:true i r
             | None -> ())
           ~should_stop:interrupted ())
  | _ -> ());
  (* Local tier: whatever the workers did not serve. *)
  ignore
    (Pool.map_array t.pool nw (fun i ->
         if served_remote.(i) || interrupted () then ()
         else commit ~remote:false i (compute (snd work.(i)))));
  if show then report ~final:true;
  if interrupted () then begin
    checkpoint t ~interrupted:true;
    raise Interrupted
  end;
  checkpoint t ~interrupted:false

let get_memo t table key_of compute ~section ~enc_key ~enc_res ~dec_res ~timed c =
  let k = key_of c in
  Mutex.lock t.guard;
  let retry = t.budgets.retry_timed_out in
  let hit =
    match Hashtbl.find_opt table k with
    | Some r -> Some r
    | None -> (
        match t.store with
        | None -> None
        | Some s -> (
            match Store.find s ~section (enc_key k) with
            | None -> None
            | Some v -> (
                match dec_res v with
                | Some r when retry && timed r -> None
                | Some r ->
                    Hashtbl.replace table k r;
                    t.n_disk <- t.n_disk + 1;
                    Some r
                | None -> None)))
  in
  Mutex.unlock t.guard;
  match hit with
  | Some r -> r
  | None ->
      let r = compute c in
      Mutex.lock t.guard;
      Hashtbl.replace table k r;
      t.n_computed <- t.n_computed + 1;
      t.u_total <- t.u_total + 1;
      t.u_done <- t.u_done + 1;
      if timed r then t.u_timed <- t.u_timed + 1;
      t.since_autosave <- t.since_autosave + 1;
      (match t.store with
      | None -> ()
      | Some s -> Store.add s ~section ~key:(enc_key k) ~value:(enc_res r));
      Mutex.unlock t.guard;
      safe_flush t;
      r

let cell_timed r = r.timed_out
let adv_timed _ = false

let prefetch t cells =
  prefetch_memo t t.memo key_of_cell
    (fun c -> compute_cell ~budgets:t.budgets c)
    ~section:cell_section ~enc_key:cell_key_string_of_key
    ~enc_res:cell_result_encode ~dec_res:cell_result_decode ~timed:cell_timed cells

let get t c =
  get_memo t t.memo key_of_cell
    (fun c -> compute_cell ~budgets:t.budgets c)
    ~section:cell_section ~enc_key:cell_key_string_of_key
    ~enc_res:cell_result_encode ~dec_res:cell_result_decode ~timed:cell_timed c

let prefetch_adv t cells =
  prefetch_memo t t.adv_memo adv_key_of compute_adv ~section:adv_section
    ~enc_key:adv_key_string_of_key ~enc_res:adv_result_encode
    ~dec_res:adv_result_decode ~timed:adv_timed cells

let get_adv t c =
  get_memo t t.adv_memo adv_key_of compute_adv ~section:adv_section
    ~enc_key:adv_key_string_of_key ~enc_res:adv_result_encode
    ~dec_res:adv_result_decode ~timed:adv_timed c

let map t f xs = Pool.map_list t.pool f xs

(* ------------------------------------------------------------------ *)
(* The worker side: what [rme worker] runs. With a cache directory
   the worker gets its own disk tier — lookups go store → compute,
   computed entries are written back and flushed after every batch,
   so a long sweep's results survive even a coordinator that dies
   mid-run. *)

let serve_worker ?cache_dir ?budgets ic oc =
  let store = match cache_dir with None -> None | Some d -> open_store d in
  (* Mirror the engine's resume semantics: under [retry_timed_out]
     the worker's own disk tier must not hand back a stored timed-out
     result the coordinator is asking to have recomputed. *)
  let retry =
    match budgets with Some b -> b.retry_timed_out | None -> false
  in
  let serveable ~section v =
    not
      (retry
      && String.equal section cell_section
      && match cell_result_decode v with Some r -> r.timed_out | None -> true)
  in
  let compute ~section ~key =
    match Option.bind store (fun s -> Store.find s ~section key) with
    | Some v when serveable ~section v -> Some v
    | Some _ | None ->
        let v = compute_encoded ?budgets ~section ~key () in
        (match (store, v) with
        | Some s, Some value -> Store.add s ~section ~key ~value
        | _ -> ());
        v
  in
  let on_batch () =
    match store with
    | None -> ()
    | Some s -> ( try Store.flush s with _ -> ())
  in
  Rme_dist.Worker.serve ~fingerprint:(code_fingerprint ()) ~compute ~on_batch ic oc
