let all =
  [
    Tas.factory;
    Ticket.factory;
    Mcs.factory;
    Clh.factory;
    Peterson_tree.factory;
    Rcas.factory;
    Rstamp.factory;
    Rtournament.factory;
    Katzan_morrison.factory;
    Sublog.factory;
    Epoch_mcs.factory;
  ]

(* Locks whose recover protocol tolerates *individual* process crashes —
   the model of the paper's Theorem 1. *)
let recoverable =
  [
    Rcas.factory;
    Rstamp.factory;
    Rtournament.factory;
    Katzan_morrison.factory;
    Sublog.factory;
  ]

(* Locks for the system-wide crash model (all processes crash together),
   where the paper's lower bound provably does not apply. *)
let system_wide = [ Epoch_mcs.factory ]

let conventional =
  List.filter (fun f -> not f.Rme_sim.Lock_intf.recoverable) all

(* Besides the catalogue, the forced-arity Katzan-Morrison variants
   (A1's [katzan-morrison-b<k>]) resolve by name, so that every lock an
   experiment runs can be rebuilt from the name in its cell key. Only
   the canonical spelling matches: the rebuilt factory must carry the
   very name it was found by. *)
let find name =
  match List.find_opt (fun f -> f.Rme_sim.Lock_intf.name = name) all with
  | Some _ as found -> found
  | None -> (
      match Scanf.sscanf_opt name "katzan-morrison-b%u%!" Fun.id with
      | Some k when k >= 2 ->
          let f = Katzan_morrison.factory_with_arity k in
          if f.Rme_sim.Lock_intf.name = name then Some f else None
      | _ -> None)

let names () = List.map (fun f -> f.Rme_sim.Lock_intf.name) all
