#!/usr/bin/env bash
# Builds the benchmark from source, inside the checkout, and runs it
# with the given arguments from the repository root. Everything the Go
# toolchain writes (build cache, the binary) and everything the
# benchmark writes (result.json, traces) lands under .bench_build/.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$here" && go build -o "$out/lsvd-benchmark" .)
cd "$root"
exec "$out/lsvd-benchmark" "$@"
