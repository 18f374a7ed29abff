#!/usr/bin/env bash
# Build the benchmark driver from source, then run it with the given
# arguments, e.g.
#
#   bash perf/run.sh --workload sim-heavy --seed 3 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to stderr and to
# _build/; the dune cache is off so nothing is written outside the tree.
# Without the repository's libraries beside perf/ the build fails and so
# does this script.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./perf/run.exe 1>&2
exec ./_build/default/perf/run.exe "$@"
