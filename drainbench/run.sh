#!/usr/bin/env bash
# Builds drainnet-serve, drainnet-train and drainbench from source, then
# runs drainbench. Run from the repository root:
#
#   bash drainbench/run.sh --workload detect --seed 1 --seconds 25 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/drainnet-serve ]]; then
	echo "drainbench: run from the drainnet repository root (go.mod and cmd/drainnet-serve not found)" >&2
	exit 2
fi

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off

go build -o "$work/bin/" ./cmd/drainnet-serve ./cmd/drainnet-train
(cd drainbench && go build -o "$work/bin/drainbench" .)

exec "$work/bin/drainbench" -bin "$work/bin" -work "$work" "$@"
