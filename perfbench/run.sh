#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run from the root of the checkout; the build, its cache and everything
# the benchmark writes stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
