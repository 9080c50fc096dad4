#!/usr/bin/env bash
# Builds tqbench from source and runs it with the given arguments, from
# the root of a checkout of the repository:
#
#   bash bench/run.sh --workload live-profile --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, temporary
# files, recorded traces, daemon data, traced-run output — stays under
# .bench_build/ in the checkout.  No module is downloaded: the benchmark
# imports only the standard library and this repository.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$out/tqbench" ./cmd/tqbench)
exec "$out/tqbench" -trace-dir "$out/trace" "$@"
