#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the binary, the
# journals and the span files all stay under .bench_build there; no
# module is fetched.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" --dir "$out" "$@"
