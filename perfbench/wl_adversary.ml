(* adversary: lower-bound constructions against the recoverable locks
   E3 sweeps, at n = 1024..16384. The expensive core is fixed (every
   recoverable lock at n = 4096 in both models, Katzan-Morrison at
   n = 16384) so that every seed costs about the same; the seed draws
   the remaining cells' (lock, model, w, k) from E3's and A2's ranges
   at n = 1024. *)

module A = Rme_core.Adversary
module E = Rme_experiments.Engine
module Rmr = Rme_memory.Rmr
module Lock_intf = Rme_sim.Lock_intf
open Support

let e3_widths = [| 4; 8; 16; 32 |]

(* A2's thresholds, relative to w: the default w+1, then larger. *)
let k_choices w = [| w + 1; 2 * w; 4 * w; 128 |]

let drawn ~seed ~n ~count =
  let g = Rme_util.Splitmix.create seed in
  let locks = Array.of_list Rme_locks.Registry.recoverable in
  List.init count (fun i ->
      let lock = locks.(i mod Array.length locks) in
      let model = if Rme_util.Splitmix.bool g then Rmr.Cc else Rmr.Dsm in
      let widths =
        Array.of_list
          (List.filter (fun w -> Lock_intf.supports lock ~n ~width:w) (Array.to_list e3_widths))
      in
      let width = Rme_util.Splitmix.pick g widths in
      let k = Rme_util.Splitmix.pick g (k_choices width) in
      E.adv_cell ~k ~n ~width ~model lock)

(* The first cell is the set-up's warm-up unit. *)
let cells ~seed ~smoke =
  let km = Rme_locks.Katzan_morrison.factory in
  if smoke then
    Array.of_list (E.adv_cell ~n:64 ~width:16 ~model:Rmr.Dsm km :: drawn ~seed ~n:64 ~count:2)
  else
    let core =
      List.concat_map
        (fun model ->
          List.map
            (fun lock -> E.adv_cell ~n:4096 ~width:16 ~model lock)
            Rme_locks.Registry.recoverable)
        [ Rmr.Dsm; Rmr.Cc ]
    in
    Array.of_list
      ((E.adv_cell ~n:16384 ~width:16 ~model:Rmr.Dsm km :: core)
      @ drawn ~seed ~n:1024 ~count:10)

let config (c : E.adv_cell) =
  let cfg = A.default_config ~n:c.E.a_n ~width:c.E.a_width c.E.a_model in
  match c.E.a_k with Some k -> { cfg with A.k } | None -> cfg

let stat (r : A.result) =
  Printf.sprintf "rounds=%d surv=[%s] min=%d fin=%d rem=%d esc=%d replay=%d sched=%d bound=%h"
    r.A.rounds_completed
    (String.concat "," (List.map string_of_int (Rme_util.Intset.elements r.A.survivors)))
    r.A.survivor_min_rmrs r.A.finished r.A.removed r.A.escaped r.A.replay_checked_steps
    (Array.length r.A.schedule.A.directives)
    r.A.predicted_lower_bound

let to_engine (r : A.result) =
  {
    E.rounds = r.A.rounds_completed;
    bound = r.A.predicted_lower_bound;
    survivors = Rme_util.Intset.cardinal r.A.survivors;
  }

let make ~seed ~smoke ~dir : Workload.t =
  let cells = cells ~seed ~smoke in
  let keys = Array.to_list (Array.map E.adv_key_string cells) in
  let distinct = Workload.distinct keys in
  let engine = Workload.engine ~dir in
  let close = Workload.once (fun () -> E.shutdown engine) in
  let results = Array.make (Array.length cells) None in
  let run i =
    let cfg = config cells.(i) in
    let r, secs =
      time (fun () ->
          Span.with_ "adversary.run" (fun () ->
              let r = A.run cfg cells.(i).E.a_lock in
              Span.set_units r.A.rounds_completed;
              r))
    in
    results.(i) <- Some r;
    if r.A.escaped > 0 then report_failed ~unit:(E.adv_key_string cells.(i)) ~detail:(stat r);
    {
      Workload.secs;
      cells = 1;
      failed = (if r.A.escaped = 0 then 0 else 1);
      stat = E.adv_key_string cells.(i) ^ " " ^ stat r;
    }
  in
  let result i = Option.get results.(i) in
  (* What the store must serve back, fixed once before the warm phase. *)
  let served = ref [||] in
  {
    Workload.inputs = keys;
    slots = Array.length cells;
    warm_up = (fun () -> ignore (E.get_adv engine cells.(0)));
    run;
    check =
      (fun () ->
        let agree = E.get_adv engine cells.(0) = to_engine (result 0) in
        ( Array.mapi (fun i _ -> Array.length (result i).A.schedule.A.directives) cells,
          if agree then 0 else 1 ));
    prepare_warm =
      (fun () ->
        close ();
        served := Array.mapi (fun i _ -> to_engine (result i)) cells;
        Workload.persist_entries ~dir ~section:Workload.adv_section
          (List.map2 (fun k r -> (k, E.adv_result_encode r)) keys (Array.to_list !served)));
    warm =
      (fun () ->
        let e = Workload.engine ~dir in
        let bad = ref 0 in
        Array.iteri (fun i c -> if E.get_adv e c <> !served.(i) then incr bad) cells;
        let n = Array.length cells in
        if not (Workload.served_from_disk e ~distinct) then bad := n;
        E.shutdown e;
        (n, !bad));
    finish = close;
  }
