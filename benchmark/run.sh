#!/usr/bin/env bash
# Builds the benchmark from source and runs it. This is BENCHMARK.json's
# command: the driver appends --workload/--seed/--seconds/--trace.
#
# Everything the build leaves behind — the binary, Go's build cache and
# its temporary files — stays in .bench_build at the root of the checkout,
# so a run reads and writes nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not a checkout of the medley module (no go.mod or internal/)" >&2
	exit 3
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# VCS stamping is off (a checkout need not be a git repository, and one
# nested in somebody else's must not fail the build); the commit is passed
# in by hand where there is one.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
go build -ldflags "-X main.gitCommit=$commit" -o "$build/medley-benchmark" ./benchmark
exec "$build/medley-benchmark" "$@"
