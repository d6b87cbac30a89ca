(* sweep_store: a grid of thousands of small trial cells (all eleven
   locks, n <= 32, CC and DSM, crash-free plus Crash_prob for the
   recoverable locks, seeded scheduling and crash seeds), pushed cold
   through a fresh engine whose store lives in a fresh private
   directory (the write path). The warm phase reopens that directory
   from fresh engines (the read path). *)

module H = Rme_sim.Harness
module E = Rme_experiments.Engine
module Rmr = Rme_memory.Rmr
module Lock_intf = Rme_sim.Lock_intf
open Support

let width = 16
let warm_up_cells = 1024

let grid ~seed ~smoke =
  let seeds = Workload.splitmix_ints seed (if smoke then 1 else 12) in
  let ns = if smoke then [ 2; 4 ] else [ 2; 4; 8; 16; 32 ] in
  let models = [ Rmr.Cc; Rmr.Dsm ] in
  let each locks f =
    List.concat_map
      (fun (lock : Lock_intf.factory) ->
        List.concat_map
          (fun n ->
            if Lock_intf.supports lock ~n ~width then
              List.concat_map
                (fun model -> List.concat_map (fun s -> f lock n model s) (Array.to_list seeds))
                models
            else [])
          ns)
      locks
  in
  let crash_free =
    each Rme_locks.Registry.all (fun lock n model s ->
        [ E.cell ~superpassages:2 ~seed:s ~n ~width ~model lock ])
  in
  let crashing =
    each Rme_locks.Registry.recoverable (fun lock n model s ->
        List.map
          (fun prob ->
            E.cell ~superpassages:2
              ~crashes:(H.Crash_prob { prob; seed = s * 31 })
              ~allow_cs_crash:true ~max_crashes:2 ~seed:s ~n ~width ~model lock)
          [ 0.05; 0.1 ])
  in
  Array.of_list (crash_free @ crashing)

let make ~seed ~smoke ~dir : Workload.t =
  let grid = grid ~seed ~smoke in
  let n = Array.length grid in
  let keys = Array.to_list (Array.map E.cell_key_string grid) in
  let distinct = Workload.distinct keys in
  let setup_engine = Workload.engine ~dir in
  let close = Workload.once (fun () -> E.shutdown setup_engine) in
  let results = ref [||] in
  let pass_dir = ref None in
  let run _ =
    Option.iter drop_dir !pass_dir;
    let d = fresh_dir "sweep-pass" in
    pass_dir := Some d;
    let t0 = now () in
    let e = Span.with_ "engine.create" (fun () -> Workload.engine ~dir:d) in
    Span.with_ ~units:n "engine.prefetch" (fun () -> E.prefetch e (Array.to_list grid));
    let t1 = now () in
    results := Array.map (E.get e) grid;
    let t2 = now () in
    Span.with_ "engine.shutdown" (fun () -> E.shutdown e);
    let t3 = now () in
    let failed = ref 0 in
    Array.iteri
      (fun i (r : E.cell_result) ->
        if not (r.E.ok && not r.E.timed_out) then begin
          incr failed;
          report_failed ~unit:(E.cell_key_string grid.(i)) ~detail:(E.cell_result_encode r)
        end)
      !results;
    let b = Buffer.create (n * 64) in
    Array.iter
      (fun r ->
        Buffer.add_string b (E.cell_result_encode r);
        Buffer.add_char b '\n')
      !results;
    {
      Workload.secs = t1 -. t0 +. (t3 -. t2);
      cells = n;
      failed = !failed;
      stat = Buffer.contents b;
    }
  in
  {
    Workload.inputs = keys;
    slots = 1;
    warm_up =
      (fun () ->
        E.prefetch setup_engine (List.filteri (fun i _ -> i < warm_up_cells) (Array.to_list grid)));
    run;
    check =
      (fun () ->
        (* Recompute every cell directly through the harness: the
           engine's results must match, and the runs give the step
           count. *)
        let steps = ref 0 in
        let bad = ref 0 in
        Array.iteri
          (fun i (c : E.cell) ->
            let r = H.run (Workload.harness_config c) c.E.lock in
            steps := !steps + r.H.steps;
            if Workload.cell_of_result r <> !results.(i) then incr bad)
          grid;
        ([| !steps |], !bad));
    prepare_warm = close;
    warm =
      (fun () ->
        let e = Workload.engine ~dir:(Option.get !pass_dir) in
        let bad = ref 0 in
        Array.iteri (fun i c -> if E.get e c <> !results.(i) then incr bad) grid;
        if not (Workload.served_from_disk e ~distinct) then bad := n;
        E.shutdown e;
        (n, !bad));
    finish =
      (fun () ->
        close ();
        Option.iter drop_dir !pass_dir);
  }
