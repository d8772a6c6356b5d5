#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it.
# Usage, from the root of a checkout:
#   bash servebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
# Every file the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/servebench" && go build -o "$build/servebench" .)
exec "$build/servebench" -dir "$build" "$@"
