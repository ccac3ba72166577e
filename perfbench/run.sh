#!/usr/bin/env bash
# Builds the benchmark against the enclosing checkout and runs it:
#
#   bash perfbench/run.sh --workload select-cold --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# directories, span dumps) stays under .bench_build/ at the checkout root.
# Outside a full checkout the build fails and the script exits non-zero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0
mkdir -p "$out/tmp"

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
