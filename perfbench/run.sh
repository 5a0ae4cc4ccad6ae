#!/usr/bin/env bash
# Builds the benchmark (and with it the program) from the sources of
# this checkout, then runs it with the given arguments. Every file the
# Go toolchain writes stays under .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 24 --trace 0
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/home" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" HOME="$build/home" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
