#!/usr/bin/env bash
# Build the scheme benchmark from source and run it, from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload crs_k5|delta_line16|grid1024 \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: dune's build tree (its shared cache is switched off)
# and the Runtime_events ring file of the traced pass, which the
# runtime removes at exit.  Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON result.  A failed build exits
# non-zero without printing a result.
set -euo pipefail
build=.bench_build
export DUNE_CACHE=disabled
dune build --root . --build-dir "$build" ./perfbench/perf.exe 1>&2
export OCAML_RUNTIME_EVENTS_DIR="$PWD/$build/runtime_events"
mkdir -p "$OCAML_RUNTIME_EVENTS_DIR"
exec "$build/default/perfbench/perf.exe" "$@"
