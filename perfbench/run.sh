#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload figures|sampled|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory (Go build cache, binary, profiles).
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "perfbench: run from the repository root (the simulator sources are missing here)" >&2
	exit 2
fi

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
