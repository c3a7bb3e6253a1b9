#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it. Everything the
# build and the run leave behind (Go build cache, the binary, durable
# scratch datasets, span files) stays under .bench_build in the
# checkout, so the benchmark never touches anything outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/hsp-benchmark" .)
exec "$build/hsp-benchmark" -tmp "$build/tmp" "$@"
