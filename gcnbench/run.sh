#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root:
#
#   bash gcnbench/run.sh --workload transform-heavy --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and span files go under
# $CARGO_TARGET_DIR (default .bench_build) in the checkout, so nothing is
# written outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac

export GOCACHE="$out/go-cache" GOTMPDIR="$out/go-tmp" GOPATH="$out/go-path"
export GOMODCACHE="$out/go-path/pkg/mod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/gcnbench" .)
exec "$out/gcnbench" --trace-dir "$out/traces" "$@"
