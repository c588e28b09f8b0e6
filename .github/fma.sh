#!/usr/bin/env bash
# Fails when a closed-form M = 2 kernel compiles to a fused multiply-add
# on arm64, and prints how many fused ops the whole tree compiles to.
#
# The Go spec lets the compiler fuse x*y + z into one instruction, which
# rounds once instead of twice; amd64 never does, arm64 does. The M = 2
# kernels (internal/cmplxmat/two.go, core's dependentDirection2WS, the
# chain solver's tail2WS, the fixed-size scorer score2WS and
# measurement measure2WS with their decoder zf2, and the channel's
# diagonal chain product DiagScaleInto)
# round every product that feeds a sum with an explicit float64(...)
# conversion, which forbids the fusion, so they give the same bits on
# both. This script cross-builds the root
# package's test binary for arm64, disassembles it with go tool objdump
# and fails:
#   - if a kernel symbol holds FMADD, FMSUB, FNMADD or FNMSUB;
#   - if a kernel is missing from the binary, since its code would then
#     sit unchecked inside its callers (a kernel must not be inlined).
# Helpers small enough to inline (Mul, Abs2, ...) are checked inside the
# kernels that inline them, and on their own when the binary keeps a copy.
# The tree-wide count covers every iaclan/ symbol.
#
# Before that it runs the same detector on a seeded fused op, a*b + c in
# a throwaway module, and fails if it finds none, so a change in the
# disassembly's spelling cannot pass the check vacuously.
#
# Run from the root of a checkout, offline, with the Go toolchain alone:
#
#   bash .github/fma.sh
set -euo pipefail
export LC_ALL=C GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# The kernels, as objdump names them; each must be in the binary.
kernels=(
  'iaclan/internal/cmplxmat.det2'
  'iaclan/internal/cmplxmat.quo'
  'iaclan/internal/cmplxmat.sqrtC'
  'iaclan/internal/cmplxmat.(*Matrix).MulVec2'
  'iaclan/internal/cmplxmat.LineDet2'
  'iaclan/internal/cmplxmat.(*Matrix).leading2Into'
  'iaclan/internal/cmplxmat.Poly.QuadraticRootsInto'
  'iaclan/internal/cmplxmat.Rank2'
  'iaclan/internal/cmplxmat.(*Matrix).Inverse2WS'
  'iaclan/internal/core.dependentDirection2WS'
  'iaclan/internal/cmplxmat.Unit2'
  'iaclan/internal/cmplxmat.ZeroForce2'
  'iaclan/internal/cmplxmat.(*Matrix).MulHVec2'
  'iaclan/internal/core.(*UplinkPrep).tail2WS'
  'iaclan/internal/cmplxmat.leading2'
  'iaclan/internal/core.(*Plan).score2WS'
  'iaclan/internal/core.(*Plan).measure2WS'
  'iaclan/internal/core.zf2'
  'iaclan/internal/cmplxmat.(*Matrix).DiagScaleInto'
)
# Inlined helpers, checked on their own only when the binary keeps them.
helpers=(
  'iaclan/internal/cmplxmat.Mul'
  'iaclan/internal/cmplxmat.Abs2'
  'iaclan/internal/cmplxmat.scaleBy'
  'iaclan/internal/cmplxmat.exponent'
  'iaclan/internal/cmplxmat.pow2'
  'iaclan/internal/cmplxmat.pow2Scale'
  'iaclan/internal/cmplxmat.maxPartOf'
  'iaclan/internal/cmplxmat.Perp2'
  'iaclan/internal/cmplxmat.Inner2'
  'iaclan/internal/cmplxmat.Leading2'
  'iaclan/internal/cmplxmat.mulVec2'
  'iaclan/internal/cmplxmat.(*Matrix).Apply2'
  'iaclan/internal/cmplxmat.clearOfNull'
  'iaclan/internal/core.power2'
  'iaclan/internal/cmplxmat.(*Matrix).SubApply2'
)

# fusedPerSymbol prints "<fused ops> <symbol>" for every text symbol of
# the disassembly on stdin.
fusedPerSymbol() {
  awk '
    /^TEXT / { sym = $2; sub(/\(SB\)$/, "", sym); n[sym] += 0; next }
    sym != "" && $0 ~ /[[:space:]](FMADD|FMSUB|FNMADD|FNMSUB)[SD]?[[:space:]]/ { n[sym]++ }
    END { for (s in n) print n[s], s }
  '
}

# Self-check on a seeded fused op.
mkdir -p "$tmp/seed"
cat > "$tmp/seed/go.mod" <<'EOF'
module seed

go 1.21
EOF
cat > "$tmp/seed/main.go" <<'EOF'
package main

import "fmt"

//go:noinline
func fused(a, b, c float64) float64 { return a*b + c }

func main() { fmt.Println(fused(1, 2, 3)) }
EOF
(cd "$tmp/seed" && GOARCH=arm64 go build -o "$tmp/seed.bin" .)
seeded="$(go tool objdump -s '^main\.fused$' "$tmp/seed.bin" | fusedPerSymbol | awk '$2 == "main.fused" { print $1 }')"
if [ "${seeded:-0}" -lt 1 ]; then
  echo "fma.sh: the detector found no fused op in a*b + c on arm64; it cannot be trusted" >&2
  exit 1
fi

cd "$root"
GOARCH=arm64 go test -c -o "$tmp/iaclan.test" .
go tool objdump "$tmp/iaclan.test" | fusedPerSymbol | grep ' iaclan/' | sort -k2 > "$tmp/fused"

fail=0
check() { # symbol, required
  local n
  n="$(awk -v s="$1" '$2 == s { print $1 }' "$tmp/fused")"
  if [ -z "$n" ]; then
    if [ "$2" = required ]; then
      echo "MISSING $1 (inlined or unlinked: its code is not checked)"
      fail=1
    fi
    return
  fi
  if [ "$n" -ne 0 ]; then
    echo "FUSED   $1: $n fused multiply-adds"
    fail=1
  else
    echo "ok      $1"
  fi
}
for k in "${kernels[@]}"; do check "$k" required; done
for h in "${helpers[@]}"; do check "$h" optional; done

awk '$1 > 0 { ops += $1; syms++ } END { printf "tree-wide: %d fused ops in %d iaclan/ symbols (arm64 root test binary)\n", ops, syms }' "$tmp/fused"
if [ "$fail" -ne 0 ]; then
  echo "fma.sh: the M = 2 kernels must round every product that feeds a sum with float64(...)" >&2
  exit 1
fi
