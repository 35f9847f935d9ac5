#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout this
# script lives in, then runs it with the arguments given. Everything the Go
# toolchain and the benchmark write stays under .bench_build/.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	go build -C "$root/benchmark" -o "$build/achilles-benchmark" .

cd "$root"
exec "$build/achilles-benchmark" -workdir "$build/tmp" "$@"
