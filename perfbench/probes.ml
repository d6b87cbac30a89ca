(* The traced run's layer probes: fixed, seeded inputs timed per call
   into each layer's public functions, with spans around every call.
   Every traced run, whatever its workload, runs all of them, so every
   per-layer metric is emitted with the same meaning each time. *)

module H = Rme_sim.Harness
module Trace = Rme_sim.Trace
module E = Rme_experiments.Engine
module A = Rme_core.Adversary
module Hiding = Rme_core.Hiding
module Partite = Rme_core.Partite
module Lemma5 = Rme_core.Lemma5
module Store = Rme_store.Store
module Memory = Rme_memory.Memory
module Op = Rme_memory.Op
module Rmr = Rme_memory.Rmr
module Intset = Rme_util.Intset
open Support

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let km = Rme_locks.Katzan_morrison.factory
let ns_per secs count = secs *. 1e9 /. float_of_int (max 1 count)
let us_per secs count = secs *. 1e6 /. float_of_int (max 1 count)

(* Harness steps across n: KM, DSM, w = 16, seeded random scheduling. *)
let harness_scaling ~seed ~smoke =
  let ns = if smoke then [| 32; 64; 128 |] else [| 512; 1024; 2048 |] in
  let seeds = Workload.splitmix_ints (seed + 101) 3 in
  let runs =
    Array.mapi
      (fun i n ->
        let cfg =
          { (H.default_config ~n ~width:16 Rmr.Dsm) with H.policy = H.Random_policy seeds.(i) }
        in
        Span.with_ "harness.run" (fun () ->
            let ((r, _, _) as run) = measure (fun () -> H.run cfg km) in
            Span.set_units r.H.steps;
            run))
      ns
  in
  let step_ns i =
    let r, secs, _ = runs.(i) in
    ns_per secs r.H.steps
  in
  let steps = Array.fold_left (fun acc (r, _, _) -> acc + r.H.steps) 0 runs in
  let words = Array.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 runs in
  let failed = Array.exists (fun (r, _, _) -> not r.H.ok) runs in
  ( [
      m "harness.step_ns.n512" "ns" (step_ns 0);
      m "harness.step_ns.n1024" "ns" (step_ns 1);
      m "harness.step_ns.n2048" "ns" (step_ns 2);
      m "harness.step_cost_growth" "ratio" (step_ns 2 /. step_ns 0);
      m "harness.minor_words_per_step" "count" (words /. float_of_int steps);
      m "harness.steps" "count" (float_of_int steps);
    ],
    step_ns 1,
    failed )

(* The trace-replay split of a simulated step: run one cell with
   [record_trace], then replay its events through [Memory.apply] and,
   separately, through [Rmr.record] / [Rmr.on_crash]. The replay must
   reproduce the run's final memory and every process's RMR total. *)
let replay ~seed ~smoke model =
  let n = if smoke then 64 else 1024 in
  let cfg =
    {
      (H.default_config ~n ~width:16 model) with
      H.policy = H.Random_policy (Workload.splitmix_ints (seed + 202) 1).(0);
      record_trace = true;
    }
  in
  let r = Span.with_ "harness.run_recorded" (fun () -> H.run cfg km) in
  let tr = Option.get r.H.trace in
  let len = Trace.length tr in
  let crash = Array.make len false
  and pids = Array.make len 0
  and locs = Array.make len 0
  and ops = Array.make len Op.Read
  and marked = ref 0 in
  for i = 0 to len - 1 do
    match Trace.get tr i with
    | Trace.Step { pid; loc; op; rmr; _ } ->
        pids.(i) <- pid;
        locs.(i) <- loc;
        ops.(i) <- op;
        if rmr then incr marked
    | Trace.Crash { pid; _ } ->
        crash.(i) <- true;
        pids.(i) <- pid
  done;
  let steps = Array.fold_left (fun acc c -> if c then acc else acc + 1) 0 crash in
  (* A memory laid out exactly as the harness lays it out. *)
  let mem = Memory.create ~width:16 in
  ignore (km.Rme_sim.Lock_intf.make mem ~n);
  ignore (Memory.alloc mem ~name:"cs-cell" ~init:0);
  let (), apply_secs =
    Span.with_ ~units:steps "memory.apply" (fun () ->
        time (fun () ->
            for i = 0 to len - 1 do
              if not crash.(i) then ignore (Memory.apply mem ~pid:pids.(i) locs.(i) ops.(i))
            done))
  in
  let rmr = Rmr.create model ~n in
  let incurred = ref 0 in
  let (), record_secs =
    Span.with_ ~units:len "rmr.record" (fun () ->
        time (fun () ->
            for i = 0 to len - 1 do
              if crash.(i) then Rmr.on_crash rmr ~pid:pids.(i)
              else if
                Rmr.record rmr ~pid:pids.(i) ~loc:locs.(i)
                  ~owner:(Memory.owner mem locs.(i))
                  ~is_read:(Op.is_read ops.(i))
              then incr incurred
            done))
  in
  let totals_agree =
    Array.for_all (fun (p : H.proc_stats) -> Rmr.total rmr ~pid:p.H.pid = p.H.total_rmrs) r.H.procs
  in
  let ok =
    r.H.ok && totals_agree && !incurred = !marked
    && Memory.snapshot mem = Memory.snapshot r.H.memory
  in
  (ns_per apply_secs steps, ns_per record_secs len, steps, ok)

let adversary ~smoke =
  let cells =
    if smoke then [ (64, Rmr.Dsm, km) ]
    else
      [
        (4096, Rmr.Dsm, km);
        (4096, Rmr.Dsm, Rme_locks.Rtournament.factory);
        (4096, Rmr.Cc, Rme_locks.Rcas.factory);
      ]
  in
  let secs, rounds, replayed, words, escaped =
    List.fold_left
      (fun (s, rd, rp, w, esc) (n, model, lock) ->
        let cfg = A.default_config ~n ~width:16 model in
        let r, secs, words =
          Span.with_ "adversary.run" (fun () ->
              let ((r, _, _) as run) = measure (fun () -> A.run cfg lock) in
              Span.set_units r.A.rounds_completed;
              run)
        in
        ( s +. secs,
          rd + r.A.rounds_completed,
          rp + r.A.replay_checked_steps,
          w +. words,
          esc + r.A.escaped ))
      (0.0, 0, 0, 0.0, 0) cells
  in
  ( [
      m "adversary.round_ms" "ms" (secs *. 1e3 /. float_of_int (max 1 rounds));
      m "adversary.replay_step_ns" "ns" (ns_per secs replayed);
      m "adversary.minor_words_per_round" "count" (words /. float_of_int (max 1 rounds));
      m "adversary.rounds" "count" (float_of_int rounds);
      m "adversary.replay_checked_steps" "count" (float_of_int replayed);
    ],
    escaped = 0 )

(* One group at the paper's constants (ell = 1, delta = 1: four
   subgroups of 27, a group of 108). *)
let params = Hiding.paper_params ~ell:1 ~delta:1.0
let groups = [| Array.init (Hiding.min_group_size params) Fun.id |]

(* A discovery set is drawn the way E4 draws it: a shuffled process
   order and a uniform size in [0, delta * |all V|]. The size is kept as
   a fraction because |all V| is only known once the instance is
   solved. *)
let discovery_specs g ~count =
  let pool = Array.concat (Array.to_list groups) in
  Array.init count (fun _ ->
      Rme_util.Splitmix.shuffle g pool;
      (Array.copy pool, Rme_util.Splitmix.float g))

let discovery_set sol (order, frac) =
  let budget =
    int_of_float (params.Hiding.delta *. float_of_int (Intset.cardinal (Hiding.all_v sol)))
  in
  let size = min budget (int_of_float (frac *. float_of_int (budget + 1))) in
  Array.fold_left (fun acc x -> Intset.add x acc) Intset.empty (Array.sub order 0 size)

(* The lemma stack on one group at the paper's constants, E4's
   last-writer family: [Partite.complete], the majority-value edges,
   [Lemma5.solve], then the whole [Hiding.solve] / [verify] and seeded
   queries. *)
let hiding ~seed =
  let p = params in
  let f = snd (List.hd Rme_experiments.Experiments.e4_families) in
  let xs = groups.(0) in
  let size = p.Hiding.subgroup_size in
  let parts = Array.init p.Hiding.k (fun j -> Array.sub xs (j * size) size) in
  let complete, complete_secs =
    Span.with_ "partite.complete" (fun () -> time (fun () -> Partite.complete ~parts))
  in
  let by_value =
    Span.with_ "partite.group_by_value" (fun () ->
        Partite.group_by_value complete.Partite.edges ~f:(fun e -> f ~y:0 e))
  in
  let edges =
    Hashtbl.fold
      (fun _ es best -> if List.length es > List.length best then es else best)
      by_value []
  in
  let _, lemma5_secs =
    Span.with_ "lemma5.solve" (fun () ->
        time (fun () -> Lemma5.solve ~s:p.Hiding.s ~eps:p.Hiding.eps ~parts ~edges))
  in
  let sol, solve_secs, solve_words =
    Span.with_ "hiding.solve" (fun () ->
        measure (fun () -> Hiding.solve p ~groups:groups ~f ~y0:0))
  in
  let verified, verify_secs =
    Span.with_ "hiding.verify" (fun () -> time (fun () -> Hiding.verify sol ~f))
  in
  let specs = discovery_specs (Rme_util.Splitmix.create (seed + 303)) ~count:25 in
  let q_secs = ref 0.0 and vq_secs = ref 0.0 and ok = ref (verified = Ok ()) in
  Array.iter
    (fun spec ->
      let d = discovery_set sol spec in
      let hs, qs = Span.with_ "hiding.query" (fun () -> time (fun () -> Hiding.query sol ~d)) in
      let v, vs =
        Span.with_ "hiding.verify_query" (fun () ->
            time (fun () -> Hiding.verify_query sol ~f ~d hs))
      in
      q_secs := !q_secs +. qs;
      vq_secs := !vq_secs +. vs;
      if v <> Ok () then ok := false)
    specs;
  let count = Array.length specs in
  ( [
      m "partite.complete_ms" "ms" (complete_secs *. 1e3);
      m "lemma5.solve_ms" "ms" (lemma5_secs *. 1e3);
      m "hiding.solve_ms" "ms" (solve_secs *. 1e3);
      m "hiding.verify_ms" "ms" (verify_secs *. 1e3);
      m "hiding.query_us" "us" (us_per !q_secs count);
      m "hiding.verify_query_us" "us" (us_per !vq_secs count);
      m "hiding.minor_words_per_solve" "count" solve_words;
    ],
    !ok )

(* Engine, codec and store costs on the first cells of the sweep grid. *)
let sweep_layers ~seed ~smoke =
  let grid = Wl_sweep.grid ~seed ~smoke in
  let cells = Array.sub grid 0 (min (Array.length grid) (if smoke then 40 else 512)) in
  let n = Array.length cells in
  let reps = 20 in
  (* Engine.create on a fresh directory: code fingerprint plus store
     attach. *)
  let creates =
    List.init 5 (fun _ ->
        let d = fresh_dir "probe-create" in
        let e, secs =
          Span.with_ "engine.create" (fun () -> time (fun () -> Workload.engine ~dir:d))
        in
        E.shutdown e;
        drop_dir d;
        secs)
  in
  (* Engine overhead: a cold prefetch minus the harness time of the
     same cells run directly. Best of two of each. *)
  let direct () =
    Span.with_ ~units:n "harness.run_direct" (fun () ->
        Array.fold_left
          (fun acc (c : E.cell) ->
            let cfg = Workload.harness_config c in
            acc +. snd (time (fun () -> H.run cfg c.E.lock)))
          0.0 cells)
  in
  let prefetch () =
    let d = fresh_dir "probe-prefetch" in
    let e = Workload.engine ~dir:d in
    let (), secs =
      Span.with_ ~units:n "engine.prefetch" (fun () ->
          time (fun () -> E.prefetch e (Array.to_list cells)))
    in
    let results = Array.map (E.get e) cells in
    E.shutdown e;
    drop_dir d;
    (secs, results)
  in
  let p1, results = prefetch () in
  let d1 = direct () in
  let p2, _ = prefetch () in
  let d2 = direct () in
  let overhead = us_per (Float.min p1 p2 -. Float.min d1 d2) n in
  let loop name f =
    Span.with_ ~units:(n * reps) name (fun () ->
        snd
          (time (fun () ->
               for _ = 1 to reps do
                 Array.iteri f cells
               done)))
  in
  let keys = Array.map E.cell_key_string cells in
  let values = Array.map E.cell_result_encode results in
  let key_secs = loop "codec.key_encode" (fun _ c -> ignore (E.cell_key_string c)) in
  let enc_secs =
    loop "codec.result_encode" (fun i _ -> ignore (E.cell_result_encode results.(i)))
  in
  let decoded_ok = ref true in
  let dec_secs =
    loop "codec.result_decode" (fun i _ ->
        if E.cell_result_decode values.(i) <> Some results.(i) then decoded_ok := false)
  in
  (* The store's write path at the engine's 64-entry autosave cadence,
     stat-ing the shard after every flush. *)
  let dir = fresh_dir "probe-store" in
  let fingerprint = E.code_fingerprint () in
  let s = Store.open_ ~dir ~fingerprint in
  let add_secs = ref 0.0 and flush_secs = ref 0.0 and flushes = ref 0 and written = ref 0 in
  let store_words = ref 0.0 in
  let chunk = 64 in
  let i = ref 0 in
  while !i < n do
    let lo = !i and hi = min n (!i + chunk) in
    let (), secs, words =
      Span.with_ ~units:(hi - lo) "store.add" (fun () ->
          measure (fun () ->
              for j = lo to hi - 1 do
                Store.add s ~section:Workload.cell_section ~key:keys.(j) ~value:values.(j)
              done))
    in
    add_secs := !add_secs +. secs;
    store_words := !store_words +. words;
    let (), secs, words = Span.with_ "store.flush" (fun () -> measure (fun () -> Store.flush s)) in
    flush_secs := !flush_secs +. secs;
    store_words := !store_words +. words;
    incr flushes;
    written := !written + dir_bytes dir;
    i := hi
  done;
  let opens =
    List.init 5 (fun _ ->
        snd (Span.with_ "store.open" (fun () -> time (fun () -> Store.open_ ~dir ~fingerprint))))
  in
  let s = Store.open_ ~dir ~fingerprint in
  let found_ok = ref true in
  let find_secs =
    loop "store.find" (fun i _ ->
        if Store.find s ~section:Workload.cell_section keys.(i) <> Some values.(i) then
          found_ok := false)
  in
  drop_dir dir;
  ( [
      m "engine.create_ms" "ms" (median creates *. 1e3);
      m "engine.overhead_us_per_cell" "us" overhead;
      m "codec.key_encode_us" "us" (us_per key_secs (n * reps));
      m "codec.result_encode_us" "us" (us_per enc_secs (n * reps));
      m "codec.result_decode_us" "us" (us_per dec_secs (n * reps));
      m "store.add_us" "us" (us_per !add_secs n);
      m "store.flush_ms" "ms" (!flush_secs *. 1e3 /. float_of_int (max 1 !flushes));
      m "store.bytes_written_per_cell" "count" (float_of_int !written /. float_of_int n);
      m "store.minor_words_per_entry" "count" (!store_words /. float_of_int n);
      m "store.open_ms" "ms" (median opens *. 1e3);
      m "store.find_us" "us" (us_per find_secs (n * reps));
    ],
    !decoded_ok && !found_ok )

(* Every per-layer metric, and whether every probe's own check held
   (including the trace replay reproducing the RMR totals exactly). *)
let run ~seed ~smoke =
  let scaling, step_ns_1024, scaling_failed = harness_scaling ~seed ~smoke in
  let apply_cc, record_cc, steps_cc, ok_cc = replay ~seed ~smoke Rmr.Cc in
  let apply_dsm, record_dsm, steps_dsm, ok_dsm = replay ~seed ~smoke Rmr.Dsm in
  let adv, adv_ok = adversary ~smoke in
  let hid, hid_ok = hiding ~seed in
  let sweep, sweep_ok = sweep_layers ~seed ~smoke in
  let metrics =
    scaling
    @ [
        m "harness.self_ns_per_step" "ns" (step_ns_1024 -. apply_dsm -. record_dsm);
        m "memory.apply_ns.cc" "ns" apply_cc;
        m "memory.apply_ns.dsm" "ns" apply_dsm;
        m "rmr.record_ns.cc" "ns" record_cc;
        m "rmr.record_ns.dsm" "ns" record_dsm;
        m "replay.steps" "count" (float_of_int (steps_cc + steps_dsm));
      ]
    @ adv @ hid @ sweep
  in
  let ok = (not scaling_failed) && ok_cc && ok_dsm && adv_ok && hid_ok && sweep_ok in
  (metrics, ok)
