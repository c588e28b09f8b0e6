#!/usr/bin/env bash
# Fails when the general slot evaluator (core's evaluateWS) or the M = 2
# random-line search (core's dependentDirection2WS, or
# dependentDirectionWS, which calls it at M = 2) runs on the benchmark's
# M = 2 workloads, and lists the general linear-algebra kernels M = 2
# still reaches.
#
# At M = 2 the planner's scoring and the winner's measurement run the
# fixed-size evaluators score2WS and measure2WS; evaluateWS is the
# M >= 3 path and the test reference. The planner's solver attempts
# start from the pencil's dependent directions
# (UplinkPrep.DependentDirections2); the random-line search runs only
# for a pencil that declines, and every workload is M = 2, so neither
# search function should be reached at all. This script builds
# bench/iacperf with coverage over
# every iaclan/ package (go build -cover -coverpkg=iaclan/...) into a
# temporary directory, runs the four workloads at seed 1 for about a
# second each with GOCOVERDIR set, reads each function's statement
# coverage with go tool covdata func, and
#   - fails if (*Plan).evaluateWS, dependentDirection2WS or
#     dependentDirectionWS has any statement covered;
#   - prints jacobi, luFactorInPlace, durandKerner and NullSpaceWS as
#     "still reached" or "not reached", without failing: the downlink
#     triangle, the diversity plan and the MIMO baseline still run them
#     at M = 2.
#
# Before that it runs the same check on a seeded case, a copy of the
# tree whose EvaluateWS sends the M = 2 measurement to evaluateWS and
# whose planner drops the pencil's directions (so every attempt runs the
# random-line search), and fails unless the check goes red there on
# each function, so a change in covdata's spelling cannot pass it
# vacuously.
#
# Run from the root of a checkout, offline, with the Go toolchain alone
# (about a minute); it writes nothing inside the checkout:
#
#   bash .github/m2path.sh
set -euo pipefail
export LC_ALL=C GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# coverage <source root> <name> <workload>: build iacperf with coverage
# from the tree at <source root>, run <workload> (or all) at seed 1, and
# write covdata's per-function table to $tmp/<name>.func.
coverage() {
  local src="$1" name="$2" workload="$3"
  mkdir -p "$tmp/$name.cov"
  (cd "$src/bench" && go build -cover -coverpkg=iaclan/... -o "$tmp/$name.iacperf" ./iacperf)
  (cd "$tmp" && GOCOVERDIR="$tmp/$name.cov" "$tmp/$name.iacperf" --workload "$workload" --seed 1 --seconds 1 --trace 0 > "$tmp/$name.out")
  go tool covdata func -i "$tmp/$name.cov" > "$tmp/$name.func"
}

# percent <name> <package path suffix> <function>: the function's
# statement coverage in $tmp/<name>.func, without the %, or empty.
percent() {
  awk -v pkg="$2" -v fn="$3" 'index($1, pkg) && $2 == fn { sub(/%$/, "", $3); print $3 }' "$tmp/$1.func"
}

# reached <percent>: whether a coverage figure is above zero.
reached() { awk -v p="$1" 'BEGIN { exit !(p + 0 > 0) }'; }

# The functions that must not be reached, as covdata names them, in
# core.
unreached=('*Plan.evaluateWS' 'dependentDirection2WS' 'dependentDirectionWS')

# Self-check on a seeded M = 2 evaluateWS call and a planner without
# the pencil.
mkdir -p "$tmp/seed"
(cd "$root" && tar --exclude=./.git --exclude=./.bench_build -cf - .) | tar -xf - -C "$tmp/seed"
awk '
  /return p\.measure2WS\(ws, trueCS, estCS, opts\)/ { print "\t\treturn p.evaluateWS(ws, trueCS, estCS, same, opts)"; seeded++; next }
  { print }
  END { if (seeded != 1) exit 1 }
' "$root/internal/core/core.go" > "$tmp/seed/internal/core/core.go" || {
  echo "m2path.sh: could not seed an M = 2 evaluateWS call into EvaluateWS" >&2
  exit 1
}
awk '
  /sv\.dirs, sv\.ndirs = sv\.chain\.DependentDirections2\(ws\)/ { print "\t\tsv.ndirs = 0"; seeded++; next }
  { print }
  END { if (seeded != 1) exit 1 }
' "$root/internal/testbed/batchslots.go" > "$tmp/seed/internal/testbed/batchslots.go" || {
  echo "m2path.sh: could not drop the pencil's directions from the planner" >&2
  exit 1
}
coverage "$tmp/seed" seed campus_fading
for fn in "${unreached[@]}"; do
  p="$(percent seed internal/core/ "$fn")"
  if [ -z "$p" ] || ! reached "$p"; then
    echo "m2path.sh: the seeded M = 2 call of $fn read '${p:-absent}'; the check cannot be trusted" >&2
    exit 1
  fi
  echo "seeded  $fn reached (${p}%): the check sees an M = 2 call"
done

coverage "$root" tree all
fail=0
for fn in "${unreached[@]}"; do
  p="$(percent tree internal/core/ "$fn")"
  if [ -z "$p" ]; then
    echo "MISSING $fn in the coverage table"
    fail=1
  elif reached "$p"; then
    echo "REACHED $fn (${p}% of its statements) on the M = 2 workloads"
    fail=1
  else
    echo "ok      $fn not reached"
  fi
done
for fn in jacobi luFactorInPlace Poly.durandKerner '*Matrix.NullSpaceWS'; do
  p="$(percent tree internal/cmplxmat/ "$fn")"
  if [ -n "$p" ] && reached "$p"; then
    echo "note    $fn still reached (${p}%)"
  else
    echo "note    $fn not reached"
  fi
done
if [ "$fail" -ne 0 ]; then
  echo "m2path.sh: at M = 2 the workloads must evaluate through score2WS and measure2WS, not evaluateWS, and solve from the pencil's directions, not the random-line search" >&2
  exit 1
fi
