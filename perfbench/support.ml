(* Clock, statistics, heap counters, scratch directories and the span
   tracer shared by every workload and probe. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* [time] plus the minor-heap words the call allocated. *)
let measure f =
  let w0 = Gc.minor_words () in
  let r, secs = time f in
  (r, secs, Gc.minor_words () -. w0)

let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum = function [] -> nan | x :: xs -> List.fold_left Float.min x xs

let top_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int s.Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

let digest_hex s = Digest.to_hex (Digest.string s)

(* Name a unit that failed its checks on stderr, once per process
   however many passes repeat it, so that a failing run says which
   inputs to replay. *)
let reported_failures = Hashtbl.create 8

let report_failed ~unit ~detail =
  if not (Hashtbl.mem reported_failures unit) then begin
    Hashtbl.add reported_failures unit ();
    Printf.eprintf "[perfbench] failed unit: %s -> %s\n%!" unit detail
  end

(* ------------------------------------------------------------------ *)
(* Scratch directories. Everything the benchmark writes lives under
   [out_dir], relative to the directory it is run from. *)

let out_dir = ".perfbench_out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let tmp_counter = ref 0
let live_tmp = ref []

(* A fresh, empty directory private to this process. Removed by
   [cleanup_tmp], which [Main] runs on every exit path. *)
let fresh_dir label =
  incr tmp_counter;
  let d =
    Filename.concat out_dir
      (Printf.sprintf "tmp-%d/%s-%d" (Unix.getpid ()) label !tmp_counter)
  in
  rm_rf d;
  mkdir_p d;
  live_tmp := d :: !live_tmp;
  d

let drop_dir d =
  rm_rf d;
  live_tmp := List.filter (fun x -> x <> d) !live_tmp

let cleanup_tmp () =
  List.iter rm_rf !live_tmp;
  live_tmp := [];
  rm_rf (Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())))

(* Total size of the regular files directly under [d]. *)
let dir_bytes d =
  Array.fold_left
    (fun acc f ->
      let p = Filename.concat d f in
      match Unix.stat p with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc
      | exception Unix.Unix_error _ -> acc)
    0 (Sys.readdir d)

(* ------------------------------------------------------------------ *)
(* Spans: (name, start, stop, parent) records kept in memory while
   tracing is on and written out when the run ends. [units] is the
   number of work items the span covers (steps, cells, calls), so
   per-unit costs are measured where the work happens. *)

module Span = struct
  type span = {
    name : string;
    start : float;
    mutable stop : float;
    parent : int;
    mutable units : int;
  }

  let enabled = ref false
  let spans : span Rme_util.Vec.t = Rme_util.Vec.create ()
  let current = ref (-1)

  let with_ ?(units = 0) name f =
    if not !enabled then f ()
    else begin
      let id =
        Rme_util.Vec.push spans { name; start = now (); stop = nan; parent = !current; units }
      in
      let saved = !current in
      current := id;
      let finish () =
        (Rme_util.Vec.get spans id).stop <- now ();
        current := saved
      in
      match f () with
      | r ->
          finish ();
          r
      | exception e ->
          finish ();
          raise e
    end

  (* Set the unit count of the innermost open span (for spans whose
     count is only known once the call returns). *)
  let set_units n =
    if !enabled && !current >= 0 then (Rme_util.Vec.get spans !current).units <- n

  type agg = { count : int; total : float; self : float; units : int }

  (* Per-name totals. Self time is a span's duration minus the time its
     direct children cover (children run sequentially, never overlap). *)
  let aggregate () =
    let n = Rme_util.Vec.length spans in
    let child = Array.make n 0.0 in
    Rme_util.Vec.iter
      (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.stop -. s.start))
      spans;
    let tbl = Hashtbl.create 32 in
    Rme_util.Vec.iteri
      (fun i s ->
        let d = s.stop -. s.start in
        let a =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ count = 0; total = 0.0; self = 0.0; units = 0 }
        in
        Hashtbl.replace tbl s.name
          {
            count = a.count + 1;
            total = a.total +. d;
            self = a.self +. (d -. child.(i));
            units = a.units + s.units;
          })
      spans;
    tbl

  (* Per-name totals, largest self time first, for the run's report. *)
  let summary () =
    Hashtbl.fold (fun name a acc -> (name, a) :: acc) (aggregate ()) []
    |> List.sort (fun (_, a) (_, b) -> compare b.self a.self)

  (* One line per span: id, parent, name, start and stop (seconds from
     the first span), units. *)
  let write path =
    mkdir_p (Filename.dirname path);
    let oc = open_out path in
    let t0 = if Rme_util.Vec.length spans > 0 then (Rme_util.Vec.get spans 0).start else 0.0 in
    output_string oc "id\tparent\tname\tstart_s\tstop_s\tunits\n";
    Rme_util.Vec.iteri
      (fun i s ->
        Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.6f\t%d\n" i s.parent s.name (s.start -. t0)
          (s.stop -. t0) s.units)
      spans;
    close_out oc
end
