#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run it from the root of a checkout:
#
#   bash bench/run.sh --workload upload --seed 1 --seconds 20 --trace 0
#
# It builds the harness (a Go module of its own in bench/) and hands over to
# it; the harness builds ./cmd/diffaudit and drives the real binary. Every
# byte the build and the run write lands under .bench_build/ or bench/out/
# in the checkout, never in $HOME or /tmp.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/diffaudit" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench: run from the root of a diffaudit checkout (no go.mod or cmd/diffaudit here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
# No runtime tuning: the server and the harness run with Go's defaults.
unset GOMAXPROCS GOGC GODEBUG GOFLAGS
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$build/diffaudit-bench" .)
exec "$build/diffaudit-bench" "$@"
