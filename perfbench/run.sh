#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Every build
# product (binary, Go build cache, temporary files) stays under .bench_build/
# at the root of the checkout; arguments pass through to the binary.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -trimpath -o "$out/bin/perfbench" .) >&2
cd "$root"
exec "$out/bin/perfbench" "$@"
