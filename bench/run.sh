#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ (build cache included, so
# nothing is written outside the checkout) and runs it with the given flags:
#
#	bash bench/run.sh --workload infer_vgg --seed 1 --seconds 12 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/msharness" .
exec "$build/msharness" "$@"
