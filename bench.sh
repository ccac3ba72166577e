#!/bin/sh
# bench.sh — run the benchmark suite and emit a machine-readable perf
# snapshot (BENCH_<n>.json), so every PR's performance trajectory is
# tracked in-repo and diffable.
#
# Usage:
#   ./bench.sh                # writes BENCH_<next>.json in the repo root
#   ./bench.sh out.json       # explicit output path
#   BENCHTIME=5x ./bench.sh   # heavier sampling for the paper-level benches
#
# Two sampling tiers: the des engine microbenchmarks run many iterations
# (their per-op cost is microseconds and allocs/op is the tracked metric);
# the paper-level benchmarks replay whole simulations per op, so one
# iteration is already a meaningful sample.
set -e
cd "$(dirname "$0")"

# The CI gate compares fresh numbers against the newest committed
# snapshot; print which one that is so a local run and the gate are
# reading from the same baseline.
base=$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)
if [ -n "$base" ]; then
    echo "gate baseline: $base" >&2
fi

out=$1
if [ -z "$out" ]; then
    n=1
    while [ -e "BENCH_${n}.json" ]; do n=$((n + 1)); done
    out="BENCH_${n}.json"
elif [ -e "$out" ]; then
    # Committed snapshots are append-only history: overwriting one would
    # silently rewrite the perf trajectory the CI gate compares against.
    echo "bench.sh: refusing to overwrite existing snapshot $out" >&2
    echo "bench.sh: pass a new path, or no argument to auto-number BENCH_<n>.json" >&2
    exit 1
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

# Never snapshot perf from a tree that violates the determinism /
# telemetry-purity invariants: a BENCH_*.json taken from such a tree
# could bake in numbers no clean tree reproduces.
echo "== invariant check (cmd/iovet)" >&2
go run ./cmd/iovet ./...

echo "== engine microbenchmarks (internal/des)" >&2
go test -run='^$' -bench=. -benchmem ./internal/des/ >>"$tmp"

echo "== streaming-pipeline microbenchmarks (internal/trace, internal/pattern)" >&2
go test -run='^$' -bench=. -benchmem ./internal/trace/ ./internal/pattern/ >>"$tmp"

# One key per op, at microseconds each: a what-if sweep fingerprints every
# phase of every variant, so key cost shows in whatif-fast's op_ms.
echo "== replay-cache key microbenchmarks (internal/simcache)" >&2
go test -run='^$' -bench=. -benchmem ./internal/simcache/ >>"$tmp"

echo "== paper-level benchmarks (root)" >&2
go test -run='^$' -bench=. -benchmem -benchtime="${BENCHTIME:-1x}" . >>"$tmp"

# The analysis driver execs `go list -export -deps` per op, so one
# iteration is the meaningful sample; the benchmark itself asserts the
# single-load invariant (exactly one go list per driver run).
echo "== analysis-driver benchmarks (internal/analysis/framework)" >&2
go test -run='^$' -bench=BenchmarkDriverSingleLoad -benchmem -benchtime=1x \
    ./internal/analysis/framework/ >>"$tmp"

go run ./cmd/benchjson <"$tmp" >"$out"
echo "wrote $out" >&2
