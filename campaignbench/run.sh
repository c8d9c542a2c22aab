#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash campaignbench/run.sh --workload paper-live --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build in the current
# directory (Go's build cache included), so the checkout is the only
# place touched.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0 GOPROXY=off

go -C "$root/campaignbench" build -buildvcs=false -o "$out/campaignbench.bin" .
exec "$out/campaignbench.bin" "$@"
