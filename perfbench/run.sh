#!/bin/sh
# Builds buspower and the perfbench program from the checkout it is run
# in, then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-miss --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -eu
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= PPROF_TMPDIR="$out/tmp"
go build -o "$out/bin/buspower" ./cmd/buspower
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -root "$root" -bin "$out/bin/buspower" "$@"
