#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it. Run it from the
# root of a checkout; every argument is passed to the binary (see
# perfbench/README.md). The Go build cache and all run files stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-mod"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOMODCACHE="$out/go-mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
