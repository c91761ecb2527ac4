#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload mixer|sweep|serve --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result JSON.
set -euo pipefail
cd "$(dirname "$0")/.."
# No shared dune cache: the build reads and writes only this checkout.
DUNE_CACHE=disabled dune build --root . --display quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
