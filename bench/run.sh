#!/bin/sh
# Entry point named by BENCHMARK.json: builds and runs ./bench from the root of
# a checkout with the Go build cache and temporary files inside the checkout
# (.bench_build/, git-ignored), so a run reads and writes nothing outside it.
set -e
mkdir -p .bench_build/tmp
GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" exec go run ./bench "$@"
