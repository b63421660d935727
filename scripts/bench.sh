#!/bin/sh
# bench.sh — run the interning micro-benchmarks (and, unless -short, the
# Table 1 corpus benchmarks) and emit one benchfmt-style JSON file: an array
# of {name, iters, ns_per_op, B_per_op, allocs_per_op, hit_pct} records plus
# a small environment header. Run from the repo root:
#
#   ./scripts/bench.sh                    # full set, writes BENCH.json
#   ./scripts/bench.sh -short             # micro-benchmarks only (CI smoke)
#   ./scripts/bench.sh -o BENCH_PR5.json  # choose the output file
#
# BENCH_PR5.json in the repo root is the recorded before/after baseline for
# the hash-consing PR: two runs of this script (the "before" one from a
# pre-interning checkout) merged under {"before": ..., "after": ...}.
set -eu
cd "$(dirname "$0")/.."

out="BENCH.json"
short=0
count=1
while [ $# -gt 0 ]; do
    case "$1" in
    -short) short=1 ;;
    -count)
        count="$2"
        shift
        ;;
    -o)
        out="$2"
        shift
        ;;
    *)
        echo "usage: ./scripts/bench.sh [-short] [-count N] [-o out.json]" >&2
        exit 2
        ;;
    esac
    shift
done

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

# Micro-benchmarks: expression equality/keys, predicate ranges and joins,
# solver cache probes. Each package run separately so a compile error in one
# doesn't mask the others.
go test -run '^$' -count="$count" -benchmem \
    -bench '^(BenchmarkEqual|BenchmarkKeyShared|BenchmarkSubstAbsent)$' \
    ./internal/expr/ | tee -a "$raw"
go test -run '^$' -count="$count" -benchmem \
    -bench '^(BenchmarkRangesFingerprint|BenchmarkJoin|BenchmarkJoinFixedPoint)$' \
    ./internal/pred/ | tee -a "$raw"
go test -run '^$' -count="$count" -benchmem \
    -bench '^BenchmarkSolverCompareCached$' \
    ./internal/solver/ | tee -a "$raw"

# End-to-end: one serial and one parallel Table 1 directory through the full
# pipeline (scaled-down corpus; see bench_test.go), plus the warm-store
# re-run (every task served from a pre-populated HG store, zero lifts) —
# cold vs warm is the incremental-lifting ratio recorded in BENCH_PR7.json.
# Skipped by -short to keep the CI smoke job fast.
if [ "$short" -eq 0 ]; then
    go test -run '^$' -count="$count" -benchmem \
        -bench '^(BenchmarkTable1_lib|BenchmarkTable1_lib_parallel|BenchmarkTable1_lib_warmstore)$' \
        . | tee -a "$raw"
fi

# Pointer pre-pass: the pathological ptr_ directory without and with
# per-function fact tables, plus the pre-pass on its own. The
# PtrPathology vs PtrPathologyFacts pair (wall time and the fork+destroy
# metric) is the datapoint recorded in BENCH_PR10.json.
go test -run '^$' -count="$count" -benchmem \
    -bench '^(BenchmarkPtrPathology|BenchmarkPtrPathologyFacts|BenchmarkPtrAnalyze)$' \
    . | tee -a "$raw"

# Step 2: every lifted graph of a scaled-down Table 2 corpus checked in
# this process, serially (workers=1) and with each graph's theorems fanned
# over GOMAXPROCS goroutines — the path xenbench -table2 takes. The
# worker-subprocess numbers of BENCH_PR6.json came from a checker that has
# since been removed (ARCHITECTURE.md, "Step 2 runs in-process").
go test -run '^$' -count="$count" -benchmem \
    -bench '^BenchmarkStep2$' \
    ./internal/triple/ | tee -a "$raw"

# Fold the go test -bench lines into JSON. Value/unit pairs follow the
# iteration count; units become keys (ns/op -> ns_per_op, hit% -> hit_pct).
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v go="$(go env GOVERSION)" '
BEGIN {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchmarks\": [", date, go
    sep = ""
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    printf "%s\n    {\"name\": \"%s\", \"iters\": %s", sep, name, $2
    for (i = 3; i < NF; i += 2) {
        key = $(i + 1)
        gsub(/\//, "_per_", key)
        gsub(/%/, "_pct", key)
        gsub(/[^A-Za-z0-9_]/, "_", key)
        printf ", \"%s\": %s", key, $i
    }
    printf "}"
    sep = ","
}
END { printf "\n  ]\n}\n" }
' "$raw" >"$out"
echo "bench.sh: wrote $out"
