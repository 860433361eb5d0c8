#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload alexnet-fixed-perbit --seed 1 --seconds 20 --trace 0
#
# Build output, the Go build cache, journals and span files stay under
# .bench_build in the checkout; no network access is needed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
