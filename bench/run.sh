#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout:
#   bash bench/run.sh --workload warm_mvm --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays inside the checkout, under
# .bench_build/ (Go build cache, binary, temp files, trace files).
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# The go command's telemetry mode lives in a file, not in the environment (the
# GOTELEMETRY variable is read-only). In the default "local" mode every go
# invocation with a fresh config dir starts a detached side process that can
# outlive a short or failing build, so it is switched off before go runs.
echo off > "$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local

go build -o "$out/cimflow-perfbench" ./bench
exec "$out/cimflow-perfbench" "$@"
