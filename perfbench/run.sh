#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; arguments
# pass through (--workload, --seed, --seconds, --trace). Run from the root
# of the repository. Build outputs, the Go build cache, WAL files and span
# dumps all stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo none)"
exec "$out/perfbench" --workdir "$out/work" --commit "$commit" "$@"
