(* Pinned digests of every simulated statistic a workload produces,
   per (workload, seed). A speed-only change leaves all of them
   identical; a mismatch fails the run's output check. *)

let default_seed = 1

(* Regenerate with: bash perfbench/run.sh --digest --workload W --seed N *)
let digests =
  [
    ("km_scale", 0, "f046d0fa861f1fac410533a5e415fbe7");
    ("adversary", 0, "97ac57c212895f3e5d745a39cd4ccc32");
    ("sweep_store", 0, "63bafe682d790ee57b3298ccee58964f");
    ("km_scale", 1, "a12d1cbbc176bbe586354be8297a7861");
    ("adversary", 1, "ff23aea92a63b10becf94f93ca36f128");
    ("sweep_store", 1, "797a6d1df85f7266f14479295ee47bf8");
    ("km_scale", 2, "9b481ab75deea7044851da9c572f1ed7");
    ("adversary", 2, "d78e0104bc508b71819550ee0dcc72bd");
    ("sweep_store", 2, "855e00763b83a6bc3dfff86ddc5442d3")
  ]

let find ~workload ~seed =
  List.find_map (fun (w, s, d) -> if w = workload && s = seed then Some d else None) digests
