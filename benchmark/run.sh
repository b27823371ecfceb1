#!/usr/bin/env bash
# Builds and runs hymark from the root of a checkout:
#   bash benchmark/run.sh --workload read_point --seed 1 --seconds 10 --trace 0
# Everything the build leaves behind — the Go build cache included — goes
# under .bench_build in the checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$build/bin/hymark" .
exec "$build/bin/hymark" "$@"
