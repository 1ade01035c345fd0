#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run it from the
# repository root; arguments go to the benchmark:
#
#   bash bench/run.sh --workload torus-hotspot --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --workload all --seed 1
#
# Everything the Go toolchain writes (build and module caches, temporary
# files, telemetry) stays under .bench_build in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/go"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOMODCACHE="$out/modcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
