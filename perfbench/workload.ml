(* The shape every workload has, and the engine settings they share.

   A workload is a list of timed slots. One pass runs every slot once;
   the benchmark repeats passes and keeps, per slot, the best time over
   passes. A slot is one unit (a harness cell, an adversary cell)
   except in [sweep_store], whose slot is a whole grid of cells pushed
   through one engine. *)

type outcome = {
  secs : float;  (** host time of the timed calls. *)
  cells : int;  (** units the slot completes. *)
  failed : int;  (** units that failed their checks. *)
  stat : string;  (** canonical simulated statistics of the slot. *)
}

type t = {
  inputs : string list;
      (** canonical description of the generated inputs, one per unit. *)
  slots : int;
  warm_up : unit -> unit;  (** the set-up's warm-up unit. *)
  run : int -> outcome;
  check : unit -> int array * int;
      (** After the timed passes: simulated steps per slot and the
          number of further failures found by re-checking the results
          against an independent computation. *)
  prepare_warm : unit -> unit;
      (** Persist the last pass's results where a fresh engine can
          re-serve them. *)
  warm : unit -> int * int;
      (** Serve every persisted result once from a fresh engine: cells
          served, failures. *)
  finish : unit -> unit;
}

(* Every engine the benchmark builds: one domain, no worker
   processes, explicit budgets and a cell-count-only autosave cadence,
   so runs never read RME_* settings and repeat exactly at -j 1. *)
let engine ~dir =
  Rme_experiments.Engine.create ~jobs:1 ~cache_dir:dir ~progress:false ~workers:0
    ?cell_timeout:None ?step_budget:None ~retry_timed_out:false ~escalation:1.0
    ~autosave_cells:64 ~autosave_secs:1e9 ~label:"perfbench" ()

let once f =
  let fired = ref false in
  fun () ->
    if not !fired then begin
      fired := true;
      f ()
    end

let distinct keys = List.length (List.sort_uniq compare keys)

(* Counters of a warm engine that looked up [distinct] different keys:
   each must be a store hit (repeated keys are memo hits). *)
let served_from_disk e ~distinct =
  let c = Rme_experiments.Engine.counters e in
  c.Rme_experiments.Engine.computed = 0 && c.Rme_experiments.Engine.disk = distinct

(* Store section names the engine files its two cell kinds under. *)
let cell_section = "cell"
let adv_section = "adv"

let splitmix_ints seed k =
  let g = Rme_util.Splitmix.create seed in
  Array.init k (fun _ -> Rme_util.Splitmix.int g 1_000_000_007)

let cell_of_result (r : Rme_sim.Harness.result) : Rme_experiments.Engine.cell_result =
  let module H = Rme_sim.Harness in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 r.H.procs in
  {
    Rme_experiments.Engine.ok = r.H.ok;
    timed_out = r.H.timed_out;
    max_passage_rmr = r.H.max_passage_rmr;
    mean_passage_rmr = r.H.mean_passage_rmr;
    total_crashes = r.H.total_crashes;
    total_rmrs = sum (fun p -> p.H.total_rmrs);
    cs_entries = sum (fun p -> p.H.cs_entries);
    max_bypass = Array.fold_left (fun acc p -> max acc p.H.max_bypass) 0 r.H.procs;
  }

(* Every simulated statistic of a harness run, canonically. *)
let harness_stat (r : Rme_sim.Harness.result) =
  let module H = Rme_sim.Harness in
  let b = Buffer.create 256 in
  Printf.bprintf b "ok=%b done=%b to=%b steps=%d max=%d mean=%h crashes=%d viol=%d|" r.H.ok
    r.H.completed r.H.timed_out r.H.steps r.H.max_passage_rmr r.H.mean_passage_rmr
    r.H.total_crashes (List.length r.H.violations);
  Array.iter
    (fun p ->
      Printf.bprintf b "%d:%d:%d:%d:%d:%d:[" p.H.passages p.H.crashes p.H.total_rmrs
        p.H.max_passage_rmr p.H.cs_entries p.H.max_bypass;
      Array.iter (fun x -> Printf.bprintf b "%d," x) p.H.passage_rmrs;
      Buffer.add_string b "]")
    r.H.procs;
  Buffer.contents b

(* The harness configuration the engine's [compute_cell] builds for a
   cell without budgets: harness defaults plus the cell's fields. *)
let harness_config (c : Rme_experiments.Engine.cell) =
  let module H = Rme_sim.Harness in
  let module E = Rme_experiments.Engine in
  {
    (H.default_config ~n:c.E.n ~width:c.E.width c.E.model) with
    H.superpassages = c.E.superpassages;
    policy = H.Random_policy c.E.seed;
    crashes = c.E.crashes;
    allow_cs_crash = c.E.allow_cs_crash;
    max_crashes_per_process = c.E.max_crashes;
  }

(* Persist pre-encoded entries through a store handle of the engine's
   fingerprint, as the engine itself would have written them. *)
let persist_entries ~dir ~section entries =
  let s =
    Rme_store.Store.open_ ~dir ~fingerprint:(Rme_experiments.Engine.code_fingerprint ())
  in
  List.iter (fun (key, value) -> Rme_store.Store.add s ~section ~key ~value) entries;
  Rme_store.Store.flush s
