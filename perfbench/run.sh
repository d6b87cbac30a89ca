#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Build output goes to .bench_build/, run output (spans, the private
# store directories while they exist) to .perfbench_out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $root holds no rme source tree (dune-project and lib/ are missing)" >&2
  exit 2
fi
# The benchmark builds every engine with explicit arguments; clearing
# these keeps anything else that reads them (and the GC) at defaults.
unset RME_CACHE_DIR RME_WORKERS RME_CELL_TIMEOUT RME_STEP_BUDGET RME_BATCH_DEADLINE \
  RME_HANDSHAKE_DEADLINE RME_AUTOSAVE_CELLS RME_AUTOSAVE_SECS OCAMLRUNPARAM
dune build --root . --build-dir .bench_build --profile release ./perfbench/main.exe >&2
exec .bench_build/default/perfbench/main.exe "$@"
