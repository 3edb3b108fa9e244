#!/usr/bin/env bash
# Builds the benchmark and cmd/transfusiond from source, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, corpus,
# daemon stores and logs) stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bench" . && go build -o "$out/transfusiond" github.com/fusedmindlab/transfusion/cmd/transfusiond)
exec "$out/bench" -daemon "$out/transfusiond" -work "$out" "$@"
