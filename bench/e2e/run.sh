#!/bin/sh
# Build the server and redobench from source, then run redobench with
# the given arguments.  Run from the root of the repository:
#   sh bench/e2e/run.sh --workload serial_read95 --seed 1 --seconds 10 --trace 0
# Build output goes to stderr; the benchmark's last stdout line is its
# JSON result.  The dune cache stays off so nothing is written outside
# the checkout.
set -e
export DUNE_CACHE=disabled
dune build --root . bin/redodb_server.exe bench/e2e/redobench.exe 1>&2
exec ./_build/default/bench/e2e/redobench.exe "$@"
