#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments pass through, e.g.
#
#   bash cmd/hyperbench/run.sh --workload rack_read --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temp
# files, telemetry) stays under the build directory, ${CARGO_TARGET_DIR}
# or .bench_build by default.
set -euo pipefail

here=cmd/hyperbench
if [[ ! -f "$here/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

go -C "$here" build -o "$build/hyperbench" .
exec "$build/hyperbench" -out "$build/hyperbench-traces" "$@"
