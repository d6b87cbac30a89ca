(* km_scale: Katzan-Morrison harness cells at n = 512..2048 in CC and
   DSM, several word sizes, seeded random scheduling. The grid is fixed
   so every seed costs about the same; the seed draws each cell's
   scheduling seed. *)

module H = Rme_sim.Harness
module E = Rme_experiments.Engine
module Rmr = Rme_memory.Rmr
open Support

(* (n, model, w). The first cell is the set-up's warm-up unit. *)
let grid ~smoke =
  if smoke then [ (32, Rmr.Dsm, 16); (16, Rmr.Cc, 4); (64, Rmr.Cc, 62) ]
  else
    [
      (1024, Rmr.Dsm, 16);
      (512, Rmr.Cc, 4);
      (512, Rmr.Dsm, 62);
      (1024, Rmr.Cc, 16);
      (2048, Rmr.Dsm, 16);
    ]

let cells ~seed ~smoke =
  let g = grid ~smoke in
  let seeds = Workload.splitmix_ints seed (List.length g) in
  List.mapi
    (fun i (n, model, width) ->
      E.cell ~seed:seeds.(i) ~n ~width ~model Rme_locks.Katzan_morrison.factory)
    g
  |> Array.of_list

let describe (c : E.cell) = E.cell_key_string c

let make ~seed ~smoke ~dir : Workload.t =
  let cells = cells ~seed ~smoke in
  let keys = Array.to_list (Array.map describe cells) in
  let distinct = Workload.distinct keys in
  let engine = Workload.engine ~dir in
  let close = Workload.once (fun () -> E.shutdown engine) in
  let results = Array.make (Array.length cells) None in
  let run i =
    let cfg = Workload.harness_config cells.(i) in
    let r, secs =
      time (fun () ->
          Span.with_ "harness.run" (fun () ->
              let r = H.run cfg cells.(i).E.lock in
              Span.set_units r.H.steps;
              r))
    in
    results.(i) <- Some r;
    let ok = r.H.ok && not r.H.timed_out in
    if not ok then report_failed ~unit:(describe cells.(i)) ~detail:(Workload.harness_stat r);
    {
      Workload.secs;
      cells = 1;
      failed = (if ok then 0 else 1);
      stat = describe cells.(i) ^ " " ^ Workload.harness_stat r;
    }
  in
  let result i = Option.get results.(i) in
  (* What the store must serve back, fixed once before the warm phase. *)
  let served = ref [||] in
  {
    Workload.inputs = keys;
    slots = Array.length cells;
    warm_up = (fun () -> ignore (E.get engine cells.(0)));
    run;
    check =
      (fun () ->
        (* The warm-up unit went through the engine: its result must
           equal the directly timed run of the same cell. *)
        let agree = E.get engine cells.(0) = Workload.cell_of_result (result 0) in
        (Array.mapi (fun i _ -> (result i).H.steps) cells, if agree then 0 else 1));
    prepare_warm =
      (fun () ->
        close ();
        served := Array.mapi (fun i _ -> Workload.cell_of_result (result i)) cells;
        Workload.persist_entries ~dir ~section:Workload.cell_section
          (List.map2 (fun k r -> (k, E.cell_result_encode r)) keys (Array.to_list !served)));
    warm =
      (fun () ->
        let e = Workload.engine ~dir in
        let bad = ref 0 in
        Array.iteri (fun i c -> if E.get e c <> !served.(i) then incr bad) cells;
        let n = Array.length cells in
        if not (Workload.served_from_disk e ~distinct) then bad := n;
        E.shutdown e;
        (n, !bad));
    finish = close;
  }
