#!/usr/bin/env bash
# Builds cobench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload synth-random-75 --seed 3 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the benchmark's scratch directories all live under .bench_build/ there,
# and the toolchain is kept offline.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$out/cobench" ./cobench
exec "$out/cobench" "$@"
