#!/bin/sh
# Builds the benchmark driver from this checkout's sources, then runs it
# with the given arguments (see benchmark/README.md). Run it from the
# repository root. The build stays inside the checkout: dune's shared
# cache is switched off, and the compiler's temporary files go to
# .bench_tmp rather than the system temporary directory.
set -e
TMPDIR="$PWD/.bench_tmp"
export TMPDIR
mkdir -p "$TMPDIR"
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/run.exe >&2
exec ./_build/default/benchmark/run.exe "$@"
