#!/usr/bin/env bash
# The command of BENCHMARK.json: build the harness from source inside
# the checkout, then run it with the driver's arguments. Run from the
# repository root. Everything the go tool writes (build cache, module
# cache, temporary files, its own config) is kept under .bench_build in
# the checkout.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS= GOTOOLCHAIN=local GOPROXY=off \
	go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
