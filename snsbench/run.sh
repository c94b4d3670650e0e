#!/usr/bin/env bash
# Builds the SNS serving benchmark from this checkout's source and runs
# it; every argument is passed through to the benchmark binary. Run it
# from the root of the checkout:
#
#   bash snsbench/run.sh --workload edge_hot --seed 1 --seconds 20 --trace 0
#
# The build cache and the binary live under .bench_build/ so nothing is
# written outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$out/snsbench" .)
exec "$out/snsbench" "$@"
