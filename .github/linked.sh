#!/usr/bin/env bash
# Fails when a function declared in a non-test internal/ file is linked
# into no binary and is not on the allowlist (.github/linked-allowlist.txt),
# and when an allowlist entry is linked or no longer declared.
#
# Every cmd/, examples/ and bench/iacperf binary is built with inlining
# off (-gcflags=all=-l), so a function that some binary calls shows up
# as a text symbol in `go tool nm`. Declared functions are read from
# the gofmt'd `^func ` lines; both sides are keyed as
# <package dir under internal/>.<Func> or <pkg>.<Type>.<Method>.
# internal/analysis is the vet tool's and is not checked.
#
# Run from the root of a checkout, offline, with the Go toolchain alone:
#
#   bash .github/linked.sh
set -euo pipefail
export LC_ALL=C

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allow="$root/.github/linked-allowlist.txt"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cd "$root"
mkdir -p "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/iacperf" ./iacperf)

# Linked: text symbols of iaclan/internal/... packages, with generic
# shapes, pointer receivers, method-value suffixes and init ordinals
# stripped.
for b in "$tmp"/bin/*; do go tool nm "$b"; done |
  awk '$2 == "T" || $2 == "t" { sub(/^[[:space:]]*[0-9a-f]+[[:space:]]+[Tt][[:space:]]+/, ""); print }' |
  grep '^iaclan/internal/' |
  sed -e 's|^iaclan/internal/||' \
      -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
      -e 's/(\*\([^)]*\))/\1/g' -e 's/-fm$//' -e 's/\.init\.[0-9]*$/.init/' |
  sort -u > "$tmp/linked"

# Declared: one line per `^func ` in gofmt'd non-test files.
find internal -name '*.go' ! -name '*_test.go' ! -path 'internal/analysis/*' ! -path '*/testdata/*' |
  sort | while read -r f; do
    gofmt "$f" | awk -v pkg="$(dirname "${f#internal/}")" -v file="$f" '
      /^func / {
        s = substr($0, 6)
        recv = ""
        if (s ~ /^\(/) { # method: keep the receiver type name
          r = substr(s, 2, index(s, ")") - 2)
          s = substr(s, index(s, ")") + 2)
          sub(/\[.*/, "", r) # type parameters
          n = split(r, w, " ")
          recv = w[n]
          sub(/^\*/, "", recv)
          recv = recv "."
        }
        match(s, /^[A-Za-z_][A-Za-z0-9_]*/)
        print pkg "." recv substr(s, 1, RLENGTH) "\t" file ":" NR
      }'
  done | sort -u -k1,1 > "$tmp/declared"

awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$allow" | sort > "$tmp/allow"

cut -f1 "$tmp/declared" > "$tmp/declared.names"
comm -23 "$tmp/declared.names" "$tmp/linked" > "$tmp/unlinked"

fail=0
if bad="$(comm -23 "$tmp/unlinked" "$tmp/allow")" && [ -n "$bad" ]; then
  echo "linked: declared in internal/ but linked into no binary (delete it, move it into a _test.go, or allowlist it with a reason):"
  printf '%s\n' "$bad" | join -t "$(printf '\t')" - "$tmp/declared" | sed 's/^/  /'
  fail=1
fi
if stale="$(comm -13 "$tmp/unlinked" "$tmp/allow")" && [ -n "$stale" ]; then
  echo "linked: allowlist entries that are linked or no longer declared (drop them from $(basename "$allow")):"
  printf '%s\n' "$stale" | sed 's/^/  /'
  fail=1
fi
if [ "$fail" = 0 ]; then
  echo "linked: $(wc -l < "$tmp/declared.names") functions declared, $(wc -l < "$tmp/unlinked") unlinked, all allowlisted"
fi
exit "$fail"
