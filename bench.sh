#!/bin/sh
# bench.sh — the perf gate for this repo. Runs static checks, the race
# detector over the packages that shard work across goroutines, and the
# perf-tracking benchmarks (end-to-end selection, index build, warm gain
# requests, sharded selection, and the design-decision ablations; serving
# throughput is measured by servebench/),
# then writes the parsed results to a JSON record so the perf trajectory is
# tracked PR over PR (BENCH_PR1.json, BENCH_PR2.json, ...). cmd/benchcheck
# compares two such records; CI gates BenchmarkSelectionEndToEnd with a
# same-job old-vs-new run (see .github/workflows/ci.yml).
#
# Usage:
#   ./bench.sh                      # writes bench-<git short SHA>.json
#   LABEL="PR3 foo" OUT=BENCH_PR3.json ./bench.sh
#   BENCHTIME=10x ./bench.sh        # longer benchmark iterations
set -eu
cd "$(dirname "$0")"

SHA="$(git rev-parse --short HEAD 2>/dev/null || echo dev)"
BENCHTIME="${BENCHTIME:-5x}"
LABEL="${LABEL:-$SHA}"
OUT="${OUT:-bench-$SHA.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go vet =="
go vet ./...

echo "== race detector (cache, index, store, greedy, engine, server, shard, client, core) =="
go test -race -count=1 ./internal/cache/... ./internal/index/... ./internal/store/... ./internal/greedy/... ./internal/engine/... ./internal/server/... ./internal/shard/... ./client/... ./internal/core/...

echo "== benchmarks (benchtime=$BENCHTIME) =="
# Redirect instead of piping through tee: POSIX sh reports a pipeline's
# status from its last command, so `go test | tee` would mask bench
# failures from set -e and this script would write an empty record.
go test -run '^$' \
    -bench 'BenchmarkSelectionEndToEnd|BenchmarkIndexBuild$|BenchmarkChunkedBuild|BenchmarkAdaptiveBudget|BenchmarkWarmGainRequest|BenchmarkEngineWarmGain|BenchmarkTopGainsRepeat|BenchmarkAblationAliasVsBinarySearch|BenchmarkAblationCSRVsAdjList|BenchmarkAblationVisitedStamp|BenchmarkAblationLazyVsPlainGreedy|BenchmarkAblationIndexVsResample' \
    -benchtime "$BENCHTIME" -timeout 60m . > "$RAW" 2>&1 || { cat "$RAW"; exit 1; }
go test -run '^$' -bench 'BenchmarkAblationDTableLayout|BenchmarkIncrementalRepair|BenchmarkWarmRestart|BenchmarkStoreBackedGain' \
    -benchtime "$BENCHTIME" -timeout 30m ./internal/index/ >> "$RAW" 2>&1 || { cat "$RAW"; exit 1; }
go test -run '^$' -bench 'BenchmarkShardIndexBuild|BenchmarkShardedSelect' \
    -benchtime "$BENCHTIME" -timeout 30m ./internal/shard/ >> "$RAW" 2>&1 || { cat "$RAW"; exit 1; }
cat "$RAW"

awk -v record="$LABEL" -v benchtime="$BENCHTIME" -v goversion="$(go env GOVERSION)" '
BEGIN {
    printf "{\n  \"record\": \"%s\",\n", record
    printf "  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", goversion, benchtime
    first = 1
}
/^Benchmark/ && $4 == "ns/op" {
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", $1, $2, $3
    # Custom b.ReportMetric pairs ("62.15 ci_width", "50.00 replicates")
    # follow ns/op as value/unit pairs; record each under its unit name.
    for (i = 5; i + 1 <= NF; i += 2)
        printf ", \"%s\": %s", $(i + 1), $i
    printf "}"
}
END { printf "\n  ]\n}\n" }
' "$RAW" > "$OUT"

echo "wrote $OUT (record: $LABEL)"
