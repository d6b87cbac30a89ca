(* Fault-injection tests for the multi-process worker sharding layer
   (lib/dist). Three levels:

   - frame/protocol codecs: qcheck round-trips (including Codec-escaped
     key material) and totality — arbitrary garbage decodes to
     None/`Corrupt`, never an exception;
   - the worker serve loop, driven in-process over real pipes;
   - the coordinator, hammered with every failure mode the design
     names: a worker SIGKILLed mid-batch, garbage frames, truncated
     frames, a wrong-fingerprint handshake, a hung worker, a binary
     that cannot spawn, a worker that cannot serve any entry. Every
     failure must requeue (no lost cells), commit each result at most
     once (no duplicated cells), and leave final values identical to
     computing without workers.

   Worker subprocesses are this test binary re-executed with the
   [__rme_worker__] sentinel (see [worker_main] and test_main.ml); a
   fault mode in argv selects how the worker misbehaves. One-shot
   faults coordinate through an O_EXCL marker file so exactly one
   worker misbehaves and its respawn is honest. *)

module Frame = Rme_dist.Frame
module Protocol = Rme_dist.Protocol
module Worker = Rme_dist.Worker
module D = Rme_dist.Coordinator
module Engine = Rme_experiments.Engine
module Codec = Rme_store.Codec
module E = Rme_experiments.Experiments
module Table = Rme_util.Table
module H = Rme_sim.Harness
module Rmr = Rme_memory.Rmr

let fp () = Engine.code_fingerprint ()

(* ---------------- scratch directories ---------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let dir_counter = ref 0

let with_dir f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rme_dist_test_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  Sys.mkdir d 0o755;
  Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* ---------------- the worker side of the fault modes ---------------- *)

let echo_compute ~section ~key = if section = "t" then Some ("v:" ^ key) else None

(* First caller wins: O_EXCL creation is atomic across the worker
   processes sharing [dir], so exactly one claims the fault. *)
let claim_marker dir =
  match
    Unix.openfile
      (Filename.concat dir "rme-fault-marker")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ]
      0o644
  with
  | fd ->
      Unix.close fd;
      true
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false

(* A worker that handshakes honestly, then [misbehave]s on the first
   batch it can claim — and serves echo-style otherwise. *)
let faulty_loop ~misbehave dir =
  let rec loop () =
    match Frame.read stdin with
    | None -> ()
    | Some payload -> (
        match Protocol.decode payload with
        | Some (Protocol.Hello _) ->
            Frame.write stdout (Protocol.encode (Protocol.Ready (fp ())));
            loop ()
        | Some (Protocol.Batch (id, tasks)) ->
            if claim_marker dir then misbehave ()
            else begin
              let entries =
                List.map (fun (s, k) -> (s, k, echo_compute ~section:s ~key:k)) tasks
              in
              Frame.write stdout (Protocol.encode (Protocol.Result (id, entries)));
              loop ()
            end
        | _ -> ())
  in
  loop ()

let hang_loop () =
  let rec loop () =
    match Frame.read stdin with
    | None -> ()
    | Some payload -> (
        match Protocol.decode payload with
        | Some (Protocol.Hello _) ->
            Frame.write stdout (Protocol.encode (Protocol.Ready (fp ())));
            loop ()
        | Some (Protocol.Batch _) ->
            (* Hold the batch forever; the coordinator's deadline must
               kill us and requeue it. *)
            Unix.sleep 3600
        | _ -> ())
  in
  loop ()

(* The [__rme_worker__] entry point: test_main.ml calls this (then
   exits) when the binary is re-executed as a worker subprocess. *)
let worker_main () =
  let mode = if Array.length Sys.argv > 2 then Sys.argv.(2) else "" in
  let arg i = if Array.length Sys.argv > i then Some Sys.argv.(i) else None in
  match mode with
  | "engine" -> (
      match (arg 3, arg 4) with
      | Some "--cache-dir", Some d -> Engine.serve_worker ~cache_dir:d stdin stdout
      | _ -> Engine.serve_worker stdin stdout)
  | "echo" -> Worker.serve ~fingerprint:(fp ()) ~compute:echo_compute stdin stdout
  | "bad-fp" ->
      Worker.serve ~fingerprint:"not-the-coordinators-code" ~compute:echo_compute
        stdin stdout
  | "fail-compute" ->
      Worker.serve ~fingerprint:(fp ())
        ~compute:(fun ~section:_ ~key:_ -> None)
        stdin stdout
  | "kill-once" ->
      (* SIGKILL mid-batch: die on the first computed entry, before any
         part of the reply is written. *)
      let dir = Option.get (arg 3) in
      Worker.serve ~fingerprint:(fp ())
        ~compute:(fun ~section ~key ->
          if claim_marker dir then Unix.kill (Unix.getpid ()) Sys.sigkill;
          echo_compute ~section ~key)
        stdin stdout
  | "garbage-once" ->
      (* A reply that is not a frame: 0xff leading bytes parse as an
         over-limit length — unrecoverable stream corruption. *)
      faulty_loop
        (Option.get (arg 3))
        ~misbehave:(fun () ->
          output_string stdout "\xff\xff\xff\xffgarbage, not a frame";
          flush stdout;
          exit 0)
  | "trunc-once" ->
      (* A torn frame: a header declaring 999,999 payload bytes, three
         bytes of payload, then EOF. *)
      faulty_loop
        (Option.get (arg 3))
        ~misbehave:(fun () ->
          output_string stdout "\x00\x0f\x42\x3fabc";
          flush stdout;
          exit 0)
  | "hang" -> hang_loop ()
  | _ ->
      prerr_endline ("unknown worker fault mode " ^ mode);
      exit 2

let self_argv mode args =
  Array.of_list ((Sys.executable_name :: "__rme_worker__" :: [ mode ]) @ args)

(* ---------------- qcheck: frames ---------------- *)

let feed_str d s = Frame.feed d (Bytes.of_string s) (String.length s)

let drain_frames d =
  let rec go acc =
    match Frame.next d with
    | `Frame f -> go (f :: acc)
    | `Await -> `Ok (List.rev acc)
    | `Corrupt -> `Corrupt
  in
  go []

let prop_frame_round_trip =
  QCheck.Test.make ~name:"frame: round-trips under arbitrary chunking" ~count:300
    QCheck.(pair (small_list string) (int_range 1 7))
    (fun (payloads, chunk) ->
      let wire = String.concat "" (List.map Frame.to_string payloads) in
      let d = Frame.decoder () in
      let got = ref [] in
      let n = String.length wire in
      let i = ref 0 in
      let ok = ref true in
      while !i < n do
        let c = min chunk (n - !i) in
        feed_str d (String.sub wire !i c);
        (match drain_frames d with
        | `Ok fs -> got := !got @ fs
        | `Corrupt -> ok := false);
        i := !i + c
      done;
      !ok && !got = payloads)

let prop_frame_garbage_total =
  QCheck.Test.make ~name:"frame: incremental decode of garbage is total" ~count:300
    QCheck.string (fun junk ->
      let d = Frame.decoder () in
      feed_str d junk;
      (* Bounded drain: every step must return, never raise; embedded
         valid frames are fine, corruption must stick. *)
      let rec go n =
        n = 0
        ||
        match Frame.next d with
        | `Frame _ -> go (n - 1)
        | `Await -> true
        | `Corrupt -> ( match Frame.next d with `Corrupt -> true | _ -> false)
      in
      go 64)

let prop_frame_read_total =
  QCheck.Test.make ~name:"frame: blocking read of garbage is total" ~count:100
    QCheck.string (fun junk ->
      let f = Filename.temp_file "rme_frame" ".bin" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove f with Sys_error _ -> ())
        (fun () ->
          let oc = open_out_bin f in
          output_string oc junk;
          close_out oc;
          let ic = open_in_bin f in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let rec go n =
                n = 0 || match Frame.read ic with Some _ -> go (n - 1) | None -> true
              in
              go 64)))

(* ---------------- qcheck: protocol ---------------- *)

(* Key material in the shape the engine really sends: space-separated
   [field=value] pairs with Codec-escaped payloads (never a newline,
   never the [" := "] separator). *)
let key_gen =
  QCheck.Gen.(
    map
      (fun parts ->
        String.concat " "
          (List.mapi (fun i s -> Printf.sprintf "f%d=%s" i (Codec.escape s)) parts))
      (list_size (int_range 1 4) (string_size (int_range 0 12))))

let value_gen = QCheck.Gen.map Codec.escape QCheck.Gen.(string_size (int_range 0 16))
let section_gen = QCheck.Gen.oneofl [ "cell"; "adv"; "t" ]
let fp_gen = QCheck.Gen.(map (fun s -> "f" ^ Codec.escape s) (string_size (int_range 0 8)))

let msg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun f -> Protocol.Hello f) fp_gen;
        map (fun f -> Protocol.Ready f) fp_gen;
        map2
          (fun id tasks -> Protocol.Batch (id, tasks))
          small_nat
          (list_size (int_range 0 6) (pair section_gen key_gen));
        map2
          (fun id entries -> Protocol.Result (id, entries))
          small_nat
          (list_size (int_range 0 6)
             (map3
                (fun s k v -> (s, k, v))
                section_gen key_gen (option value_gen)));
      ])

let msg_print m =
  match Protocol.encode m with s -> String.concat "\\n" (String.split_on_char '\n' s)

let prop_protocol_round_trip =
  QCheck.Test.make ~name:"protocol: messages round-trip through encode/decode"
    ~count:500
    (QCheck.make ~print:msg_print msg_gen)
    (fun m -> Protocol.decode (Protocol.encode m) = Some m)

let prop_protocol_garbage_total =
  QCheck.Test.make ~name:"protocol: decoding arbitrary garbage is total" ~count:500
    QCheck.string (fun s ->
      match Protocol.decode s with Some _ | None -> true)

(* ---------------- engine key decoding ---------------- *)

let crash_policies : H.crash_policy list =
  [
    H.No_crashes;
    H.Crash_prob { prob = 0.05; seed = 1302 };
    H.Crash_script [ (3, 1); (700, 2) ];
    H.System_crash_script [ 10; 20; 30 ];
    H.System_crash_prob { prob = 0.125; seed = 9; max = 4 };
  ]

let mk_cell ?crashes ?(seed = 42) ?(n = 2) ?(lock = Rme_locks.Tas.factory) () =
  Engine.cell ?crashes ~seed ~n ~width:16 ~model:Rmr.Cc lock

let test_cell_key_round_trip () =
  let variants =
    mk_cell ()
    :: mk_cell ~lock:Rme_locks.Mcs.factory ()
    :: mk_cell ~n:8 ~seed:7 ()
    :: List.map (fun cp -> mk_cell ~crashes:cp ()) crash_policies
  in
  List.iter
    (fun c ->
      let key = Engine.cell_key_string c in
      match Engine.cell_of_key_string key with
      | None -> Alcotest.fail ("key undecodable: " ^ key)
      | Some c' ->
          Alcotest.(check string) ("key identity: " ^ key) key
            (Engine.cell_key_string c'))
    variants;
  let adv = Engine.adv_cell ~k:5 ~n:32 ~width:8 ~model:Rmr.Cc Rme_locks.Rcas.factory in
  let akey = Engine.adv_key_string adv in
  (match Engine.adv_cell_of_key_string akey with
  | None -> Alcotest.fail ("adv key undecodable: " ^ akey)
  | Some a' -> Alcotest.(check string) "adv key identity" akey (Engine.adv_key_string a'));
  (* Totality on junk. *)
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("reject " ^ bad) true
        (Engine.cell_of_key_string bad = None && Engine.adv_cell_of_key_string bad = None))
    [ ""; "nonsense"; "lock=no-such-lock n=2 w=16 model=cc seed=1"; "n=2" ]

let test_km_arity_key_round_trip () =
  (* A1's forced-arity KM locks are not in the registry's catalogue;
     their keys must still decode, or no worker can serve an A1 cell. *)
  let c =
    Engine.cell ~seed:9 ~n:32 ~width:32 ~model:Rmr.Cc
      (Rme_locks.Katzan_morrison.factory_with_arity 4)
  in
  let key = Engine.cell_key_string c in
  (match Engine.cell_of_key_string key with
  | None -> Alcotest.fail ("arity-4 KM key undecodable: " ^ key)
  | Some c' -> Alcotest.(check string) "key identity" key (Engine.cell_key_string c'));
  Alcotest.(check bool) "servable by a worker" true
    (Engine.compute_encoded ~section:"cell" ~key () <> None);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("reject " ^ name) true (Rme_locks.Registry.find name = None))
    [ "katzan-morrison-b1"; "katzan-morrison-b04"; "katzan-morrison-b"; "katzan-morrison-b4x" ]

let test_compute_encoded () =
  let c = mk_cell ~seed:5 () in
  (match Engine.compute_encoded ~section:"cell" ~key:(Engine.cell_key_string c) () with
  | None -> Alcotest.fail "cell key should be servable"
  | Some enc ->
      let e = Engine.create ~jobs:1 () in
      let direct = Engine.get e c in
      Engine.shutdown e;
      Alcotest.(check bool) "worker compute = direct compute" true
        (Engine.cell_result_decode enc = Some direct));
  Alcotest.(check bool) "unknown section unservable" true
    (Engine.compute_encoded ~section:"bogus" ~key:(Engine.cell_key_string c) () = None);
  Alcotest.(check bool) "garbage key unservable" true
    (Engine.compute_encoded ~section:"cell" ~key:"garbage" () = None)

(* ---------------- the worker serve loop, in-process ---------------- *)

let test_worker_serve_loop () =
  (* Script the coordinator side of a session up-front into the pipe
     (the frames are far below the pipe buffer), run the loop to
     completion, then decode the replies. *)
  let in_r, in_w = Unix.pipe () in
  let out_r, out_w = Unix.pipe () in
  let ic = Unix.in_channel_of_descr in_r in
  let script = Unix.out_channel_of_descr in_w in
  let reply_w = Unix.out_channel_of_descr out_w in
  let reply_r = Unix.in_channel_of_descr out_r in
  Frame.write script (Protocol.encode (Protocol.Hello "any-fp"));
  Frame.write script
    (Protocol.encode (Protocol.Batch (7, [ ("t", "k1"); ("t", "k2"); ("u", "k3") ])));
  close_out script;
  let batches = ref 0 in
  Worker.serve ~fingerprint:"my-fp"
    ~compute:(fun ~section ~key ->
      if section <> "t" then None
      else if key = "k2" then failwith "boom" (* contained to its entry *)
      else Some ("v:" ^ key))
    ~on_batch:(fun () -> incr batches)
    ic reply_w;
  close_out reply_w;
  let next () = Option.bind (Frame.read reply_r) Protocol.decode in
  Alcotest.(check bool) "ready with own fingerprint" true
    (next () = Some (Protocol.Ready "my-fp"));
  Alcotest.(check bool) "result: computed, failed and foreign entries" true
    (next ()
    = Some
        (Protocol.Result
           (7, [ ("t", "k1", Some "v:k1"); ("t", "k2", None); ("u", "k3", None) ])));
  Alcotest.(check int) "on_batch fired once" 1 !batches;
  Alcotest.(check bool) "clean EOF" true (Frame.read reply_r = None);
  close_in_noerr ic;
  close_in_noerr reply_r

(* ---------------- coordinator fault injection ---------------- *)

let with_dist cfg f =
  let d = D.create cfg in
  Fun.protect ~finally:(fun () -> D.shutdown d) (fun () -> f d)

let mk_tasks n = Array.init n (fun i -> ("t", Printf.sprintf "key of %d" i))

let check_all_served tasks out =
  Array.iteri
    (fun i r ->
      Alcotest.(check (option string))
        (Printf.sprintf "task %d served exactly its value" i)
        (Some ("v:" ^ snd tasks.(i)))
        r)
    out

let test_dist_echo_basic () =
  with_dist
    (D.default_config ~workers:2 ~argv:(self_argv "echo" []) ~fingerprint:(fp ()) ())
    (fun d ->
      let tasks = mk_tasks 40 in
      let done_count = ref 0 in
      let out = D.run d ~tasks ~on_done:(fun _ -> incr done_count) () in
      check_all_served tasks out;
      Alcotest.(check int) "on_done fired once per task" 40 !done_count;
      let st = D.stats d in
      Alcotest.(check int) "all remote" 40 st.D.remote;
      Alcotest.(check int) "nothing requeued" 0 st.D.requeued;
      Alcotest.(check int) "nothing unserved" 0 st.D.unserved;
      (* A coordinator is reusable; workers stay warm between runs. *)
      let tasks2 = mk_tasks 10 in
      check_all_served tasks2 (D.run d ~tasks:tasks2 ());
      Alcotest.(check int) "no extra spawns across runs" 2 (D.stats d).D.spawned)

let test_dist_sigkill_requeues () =
  with_dir (fun dir ->
      with_dist
        (D.default_config ~chunk:4 ~workers:2
           ~argv:(self_argv "kill-once" [ dir ])
           ~fingerprint:(fp ()) ())
        (fun d ->
          let tasks = mk_tasks 30 in
          let out = D.run d ~tasks () in
          (* No lost cells (everything served, correctly) and no
             duplicated cells (remote = n exactly: each result committed
             once). *)
          check_all_served tasks out;
          let st = D.stats d in
          Alcotest.(check int) "remote = n exactly" 30 st.D.remote;
          Alcotest.(check bool) "the SIGKILLed worker was detected" true (st.D.lost >= 1);
          Alcotest.(check bool) "its in-flight batch was requeued" true
            (st.D.requeued >= 1);
          (* The survivor (or a respawn — the backoff may outlive the
             queue) picks the batch up; nothing is handed back. *)
          Alcotest.(check int) "nothing unserved" 0 st.D.unserved))

let test_dist_garbage_frame_requeues () =
  with_dir (fun dir ->
      with_dist
        (D.default_config ~workers:2
           ~argv:(self_argv "garbage-once" [ dir ])
           ~fingerprint:(fp ()) ())
        (fun d ->
          let tasks = mk_tasks 24 in
          let out = D.run d ~tasks () in
          check_all_served tasks out;
          let st = D.stats d in
          Alcotest.(check int) "garbage never accepted as results" 24 st.D.remote;
          Alcotest.(check bool) "corrupt stream dropped the worker" true
            (st.D.lost >= 1);
          Alcotest.(check bool) "its batch was requeued" true (st.D.requeued >= 1)))

let test_dist_truncated_frame_requeues () =
  with_dir (fun dir ->
      with_dist
        (D.default_config ~workers:2
           ~argv:(self_argv "trunc-once" [ dir ])
           ~fingerprint:(fp ()) ())
        (fun d ->
          let tasks = mk_tasks 24 in
          let out = D.run d ~tasks () in
          check_all_served tasks out;
          let st = D.stats d in
          Alcotest.(check int) "torn frame never accepted" 24 st.D.remote;
          Alcotest.(check bool) "torn stream dropped the worker" true (st.D.lost >= 1);
          Alcotest.(check bool) "its batch was requeued" true (st.D.requeued >= 1)))

let test_dist_bad_fingerprint_rejected () =
  with_dist
    (D.default_config ~workers:2 ~argv:(self_argv "bad-fp" []) ~fingerprint:(fp ()) ())
    (fun d ->
      let tasks = mk_tasks 8 in
      let out = D.run d ~tasks () in
      Alcotest.(check bool) "nothing served by foreign code" true
        (Array.for_all Option.is_none out);
      let st = D.stats d in
      Alcotest.(check int) "no remote results accepted" 0 st.D.remote;
      Alcotest.(check int) "every task handed back" 8 st.D.unserved;
      Alcotest.(check int) "both workers disqualified" 2 st.D.lost;
      (* Permanent disqualification: respawning the same binary cannot
         change its fingerprint, so no respawns are burned. *)
      Alcotest.(check int) "no respawn attempted" 2 st.D.spawned)

let test_dist_hung_worker_deadline () =
  with_dist
    (D.default_config ~batch_deadline:0.3 ~max_respawns:1 ~workers:1
       ~argv:(self_argv "hang" []) ~fingerprint:(fp ()) ())
    (fun d ->
      let t0 = Unix.gettimeofday () in
      let out = D.run d ~tasks:(mk_tasks 6) () in
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool) "run returned promptly, not hung" true (dt < 30.0);
      Alcotest.(check bool) "nothing served" true (Array.for_all Option.is_none out);
      let st = D.stats d in
      Alcotest.(check int) "no remote results" 0 st.D.remote;
      Alcotest.(check bool) "hung worker killed at the deadline" true (st.D.lost >= 1);
      Alcotest.(check bool) "its batch was requeued first" true (st.D.requeued >= 1))

(* ---------------- the engine over a failing worker tier ---------------- *)

let with_engine ?cache_dir ?workers ?worker_argv ~jobs f =
  let e = Engine.create ~jobs ?cache_dir ?workers ?worker_argv () in
  Fun.protect ~finally:(fun () -> Engine.shutdown e) (fun () -> f e)

let render_all tables = String.concat "\n" (List.map Table.render tables)

let render_suite engine =
  render_all
    (E.e1_lock_landscape ~engine ~ns:[ 2; 4 ] ()
    @ E.e3_adversary_bound ~engine ~ns:[ 16 ] ~ws:[ 4 ] ())

let test_engine_workers_identical () =
  let base = with_engine ~jobs:1 render_suite in
  with_engine ~jobs:2 ~workers:2 ~worker_argv:(self_argv "engine" []) (fun e ->
      let out = render_suite e in
      Alcotest.(check string) "--workers 2 tables byte-identical" base out;
      let c = Engine.counters e in
      Alcotest.(check bool) "workers actually computed cells" true (c.Engine.remote > 0);
      Alcotest.(check bool) "remote is a subset of computed" true
        (c.Engine.remote <= c.Engine.computed);
      match Engine.dist_stats e with
      | None -> Alcotest.fail "coordinator attached but no stats"
      | Some st ->
          Alcotest.(check int) "telemetry agrees with counters" c.Engine.remote
            st.D.remote)

let test_engine_unspawnable_falls_back () =
  (* A worker binary that cannot run: every spawn dies instantly. The
     engine must compute everything in-process — same tables, remote
     telemetry zero. *)
  let base = with_engine ~jobs:1 render_suite in
  with_engine ~jobs:1 ~workers:2
    ~worker_argv:[| "/nonexistent/rme-worker-binary" |]
    (fun e ->
      let out = render_suite e in
      Alcotest.(check string) "all workers lost: tables still identical" base out;
      let c = Engine.counters e in
      Alcotest.(check int) "nothing remote" 0 c.Engine.remote;
      Alcotest.(check bool) "everything computed in-process" true (c.Engine.computed > 0))

let test_engine_unservable_falls_back () =
  (* Workers that answer every entry as unservable: protocol-healthy,
     compute-useless. The engine computes in-process. *)
  let base = with_engine ~jobs:1 render_suite in
  with_engine ~jobs:1 ~workers:2 ~worker_argv:(self_argv "fail-compute" []) (fun e ->
      let out = render_suite e in
      Alcotest.(check string) "unservable entries: tables still identical" base out;
      let c = Engine.counters e in
      Alcotest.(check int) "nothing remote" 0 c.Engine.remote;
      match Engine.dist_stats e with
      | None -> Alcotest.fail "coordinator attached but no stats"
      | Some st -> Alcotest.(check bool) "entries handed back" true (st.D.unserved > 0))

let test_engine_sigkill_identical () =
  (* The acceptance shape: a worker SIGKILLed mid-batch, the batch
     recomputed, the tables byte-identical to --workers 0. *)
  let base = with_engine ~jobs:1 render_suite in
  with_dir (fun dir ->
      with_engine ~jobs:1 ~workers:2 ~worker_argv:(self_argv "kill-once" [ dir ])
        (fun e ->
          Alcotest.(check int) "engine reports its worker count" 2 (Engine.workers e);
          let out = render_suite e in
          Alcotest.(check string) "SIGKILL mid-batch: tables byte-identical" base out;
          match Engine.dist_stats e with
          | None -> Alcotest.fail "coordinator attached but no stats"
          | Some st ->
              Alcotest.(check bool) "worker loss detected" true (st.D.lost >= 1)))

let suite =
  ( "dist",
    [
      Qc.to_alcotest prop_frame_round_trip;
      Qc.to_alcotest prop_frame_garbage_total;
      Qc.to_alcotest prop_frame_read_total;
      Qc.to_alcotest prop_protocol_round_trip;
      Qc.to_alcotest prop_protocol_garbage_total;
      Alcotest.test_case "engine: cell keys decode back (worker dispatch)" `Quick
        test_cell_key_round_trip;
      Alcotest.test_case "engine: compute_encoded = direct compute" `Quick
        test_compute_encoded;
      Alcotest.test_case "worker: serve loop over pipes" `Quick test_worker_serve_loop;
      Alcotest.test_case "coordinator: echo workers serve everything" `Quick
        test_dist_echo_basic;
      Alcotest.test_case "coordinator: SIGKILL mid-batch requeues, no dup/loss" `Quick
        test_dist_sigkill_requeues;
      Alcotest.test_case "coordinator: garbage frame drops worker, requeues" `Quick
        test_dist_garbage_frame_requeues;
      Alcotest.test_case "coordinator: truncated frame drops worker, requeues" `Quick
        test_dist_truncated_frame_requeues;
      Alcotest.test_case "coordinator: wrong fingerprint disqualifies" `Quick
        test_dist_bad_fingerprint_rejected;
      Alcotest.test_case "coordinator: hung worker hits the deadline" `Quick
        test_dist_hung_worker_deadline;
      Alcotest.test_case "engine: --workers 2 tables byte-identical" `Quick
        test_engine_workers_identical;
      Alcotest.test_case "engine: unspawnable workers fall back in-process" `Quick
        test_engine_unspawnable_falls_back;
      Alcotest.test_case "engine: unservable entries fall back in-process" `Quick
        test_engine_unservable_falls_back;
      Alcotest.test_case "engine: SIGKILLed worker batch recomputed identically" `Quick
        test_engine_sigkill_identical;
      Alcotest.test_case "engine: arity-4 KM cell key decodes back" `Quick
        test_km_arity_key_round_trip;
    ] )
