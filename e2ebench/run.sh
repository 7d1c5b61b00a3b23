#!/bin/sh
# Build the end-to-end benchmark from source and run it. Arguments go
# to the benchmark unchanged, e.g.
#   sh e2ebench/run.sh --workload study --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build output goes to stderr, so the
# last stdout line is the benchmark's result object.
set -e
cd "$(dirname "$0")/.."
dune build --root . e2ebench/main.exe 1>&2
exec ./_build/default/e2ebench/main.exe "$@"
