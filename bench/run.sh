#!/usr/bin/env bash
# Builds iacperf from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash bench/run.sh --workload campus_warm --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the go
# command's config and telemetry directory, GOPATH, the binary) goes
# under .bench_build/ in the checkout; nothing is fetched from the
# network. The build fails, and so does this script, when the simulator
# sources are not next to bench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/bench" && go build -o "$out/iacperf" ./iacperf)
exec "$out/iacperf" "$@"
