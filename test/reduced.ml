(* The reduced-parameter experiment runs: small enough for tier-1, yet
   every table of the catalogue except E4, A3 and F1. [test_experiments]
   checks their shape, and [gen_tables] renders them into
   [tables.out], which the [runtest] alias diffs against the committed
   [tables.expected] — so any change to a published value is a
   reviewed [dune promote], never silent drift. *)

module E = Rme_experiments.Experiments

let runs =
  [
    ("e1", fun engine -> E.e1_lock_landscape ~engine ~ns:[ 2; 4; 8 ] ());
    ("e2", fun engine -> E.e2_word_size_tradeoff ~engine ~ns:[ 8; 16 ] ~ws:[ 2; 8; 32 ] ());
    ("e3", fun engine -> E.e3_adversary_bound ~engine ~ns:[ 32; 64 ] ~ws:[ 8; 16 ] ());
    ("e5", fun engine -> E.e5_crash_cost ~engine ~n:4 ~probs:[ 0.0; 0.05 ] ());
    ("e6", fun engine -> E.e6_model_comparison ~engine ~n:8 ());
    ("e7", fun engine -> E.e7_crossover ~engine ~n:1024 ~ws:[ 2; 8; 32 ] ());
    ("e8", fun engine -> E.e8_system_wide ~engine ~ns:[ 4; 8 ] ());
    ("a1", fun engine -> E.a1_arity_ablation ~engine ~n:32 ~arities:[ 2; 8 ] ());
    ("a2", fun engine -> E.a2_k_ablation ~engine ~n:64 ~ks:[ 17; 32 ] ());
  ]

let run id engine = (List.assoc id runs) engine
