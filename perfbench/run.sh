#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it from the checkout's root. Arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload batch-dense --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
export GOMAXPROCS=2
exec "$out/perfbench" --trace-dir "$out/trace" "$@"
