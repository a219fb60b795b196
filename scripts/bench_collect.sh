#!/usr/bin/env sh
# Folds the bench harnesses' JSON lines into one machine-readable
# BENCH_<rev>.json, the unit of the perf trajectory: one file per
# revision, committed nowhere, uploaded as a CI artifact and diffed
# across revisions by whatever regression gate consumes them.
#
#   scripts/bench_collect.sh [--baseline] [build-dir] [out-file]
#
# Defaults: build-dir "build", out-file "BENCH_<short-rev>.json".
# --baseline writes BENCH_baseline.json instead -- the file committed at
# the repo root that tools/cfv_bench_compare gates CI revisions against.
# CFV_BENCH_REQUESTS scales the serve_throughput request count (CI uses
# a small value so the job stays fast; the overload contrast doubles it);
# CFV_BENCH_CLIENTS / CFV_BENCH_CLIENT_REQUESTS size its multi-client
# TCP part.
#
# Only harnesses whose stdout is pure JSON-lines participate; the
# fig*/ablation* harnesses print human tables and join the trajectory
# when they grow a --json mode.
set -eu

# Suite schema: bump whenever the set of folded harnesses, their
# workloads, or their request counts change shape.  cfv_bench_compare
# refuses to diff files with different schema values -- a cross-schema
# delta measures the suite, not the code.
SCHEMA=1

BASELINE=0
if [ "${1:-}" = "--baseline" ]; then
  BASELINE=1
  shift
fi

BUILD=${1:-build}
OUT=${2:-}
REV=$(git -C "$(dirname "$0")" rev-parse --short HEAD 2>/dev/null || echo unknown)
# The revision that last touched the suite itself (harness sources plus
# this script): recorded alongside "schema" so a stale committed
# baseline is diagnosable at a glance.
SUITE_REV=$(git -C "$(dirname "$0")/.." log -1 --format=%h -- bench scripts/bench_collect.sh 2>/dev/null || echo unknown)
[ -n "$SUITE_REV" ] || SUITE_REV=unknown
if [ -n "$OUT" ]; then
  :
elif [ "$BASELINE" = 1 ]; then
  OUT="BENCH_baseline.json"
else
  OUT="BENCH_${REV}.json"
fi

TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT

run() {
  echo "bench_collect: $*" >&2
  "$@" >>"$TMP"
}

run "$BUILD"/bench/serve_throughput "${CFV_BENCH_REQUESTS:-120}"

# Multi-client serving percentiles: N concurrent TCP clients pipelining
# warm same-dataset requests through the epoll front-end, reporting
# p50/p95/p99 latency and throughput over OK replies, and the requests
# rejected at the queue bound.
run "$BUILD"/bench/serve_throughput --clients "${CFV_BENCH_CLIENTS:-8}" \
  "${CFV_BENCH_CLIENT_REQUESTS:-25}"

# Cross-backend in-vector micro-kernel contrast: every compiled tier
# (scalar always; avx2/avx512 when the build carries them) times the
# same invec kernels, so the trajectory records how each revision's
# SIMD tiers compare.  Google Benchmark's CSV is one row per case;
# rewrite rows as JSON lines to join the fold.
if [ -x "$BUILD"/bench/micro_invec ]; then
  # One invocation per filter: the CSV reporter requires every run to
  # carry the same user counters, and the suites differ (meanD1 /
  # meanD2 / none).
  for FILTER in 'bmInvecReduce<' 'bmInvecReduce2<' 'bmHistogramInvec<'; do
    echo "bench_collect: micro_invec backend contrast ($FILTER)" >&2
    "$BUILD"/bench/micro_invec \
      --benchmark_filter="$FILTER" \
      --benchmark_format=csv --benchmark_min_time=0.05 2>/dev/null |
      awk -F, '/^"bm/ {
        Name = $1; gsub(/"/, "", Name)
        printf "{\"bench\":\"micro_invec\",\"name\":\"%s\",\"real_ns\":%s,\"cpu_ns\":%s}\n", Name, $3, $4
      }' >>"$TMP"
  done
fi

{
  printf '{"rev":"%s","date":"%s","host":"%s","schema":%s,"suite_rev":"%s","results":[\n' \
    "$REV" "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(uname -srm)" \
    "$SCHEMA" "$SUITE_REV"
  awk 'NR > 1 { printf ",\n" } { printf "%s", $0 } END { printf "\n" }' "$TMP"
  printf ']}\n'
} >"$OUT"

echo "bench_collect: wrote $OUT ($(wc -l <"$TMP") result lines)" >&2
