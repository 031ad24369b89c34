#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-chain --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every other build output stay under
# .bench_build/ in the checkout; nothing is fetched.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
