#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload table1-cold --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload all --seconds 20 --trace 0 --out new.jsonl
#   bash perfbench/run.sh --selftest
#   bash perfbench/run.sh compare base.jsonl new.jsonl
#
# Everything the build and the run write goes to .bench_build in the
# current directory: the Go build cache, the binary and the benchmark's
# store containers and span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
    exit 2
fi
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
