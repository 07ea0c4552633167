#!/usr/bin/env bash
# Builds the repository benchmark from this checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash simbench/run.sh --workload check --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (the Go build cache, the benchmark and
# simsymd binaries, span files) goes under .bench_build in the current
# directory.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" -root "$root" -out "$out" "$@"
