#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# the checkout's build directory and runs it with the driver's arguments.
# The Go build cache, temp directory and the toolchain's own config directory
# (where it keeps its local telemetry counters) are kept inside the checkout
# too, so a run reads and writes nothing outside it. In a directory without the
# repository's sources the build fails and the script exits non-zero.
#
#   bash benchmark/run.sh --workload serve_single --seed 1 --seconds 20 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
  echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod, internal/)" >&2
  exit 1
fi

build=.bench_build
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
GOCACHE=$(cd "$build/gocache" && pwd)
GOTMPDIR=$(cd "$build/gotmp" && pwd)
XDG_CONFIG_HOME=$(cd "$build/config" && pwd)
export GOCACHE GOTMPDIR XDG_CONFIG_HOME

# Up to date after the first run: go rebuilds only what changed.
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
