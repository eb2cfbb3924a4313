#!/usr/bin/env bash
# Builds the group call-path benchmark from this checkout's source and runs it:
#
#   bash groupbench/run.sh --workload sim_kv_g3 --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's result and span files all stay inside the checkout
# (.bench_build/ and .bench_out/); nothing is fetched.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/groupbench"
mkdir -p "$build/cache" "$build/tmp" "$build/home"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOPATH="$build/home/go" XDG_CONFIG_HOME="$build/home/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/groupbench" && go build -o "$build/groupbench" .)
exec "$build/groupbench" "$@"
