#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload tables --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, temporary files, telemetry) stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/bench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "bench/run.sh: run from the repository root (need go.mod and bench/go.mod)" >&2
	exit 2
fi
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/bench" && go build -o "$out/optbench" .)
exec "$out/optbench" "$@"
