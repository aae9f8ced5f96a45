#!/usr/bin/env bash
# Builds ladmserve and the benchmark from source into .bench_build/ and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-hit --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOTELEMETRY=off GOENV=off GOFLAGS=
mkdir -p "$out/bin"
go build -o "$out/bin/ladmserve" ./cmd/ladmserve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin/ladmserve" -work "$out/work" "$@"
