#!/usr/bin/env bash
# linkmap.sh lists the funcs and methods declared in internal/ that no
# program links, and fails unless each of them is named in
# .github/linkmap-allow.txt (code kept on purpose: test references, harness
# observers, test fakes and hooks, benchmark callers).
#
# The programs are every main package under cmd/ and examples/, plus the
# perfbench module. Each is built with inlining off (-gcflags=all=-l), so an
# inlined call still leaves its callee's symbol, and the symbols come from
# `go tool nm`. A declared func is linked when some program carries its
# symbol: `pkg.Func`, `pkg.(*T).M`, or `pkg.T.M` (a value method matches
# either receiver form). Two kinds of declaration are skipped: methods of
# generic types, which the linker names by instantiation
# (`des.(*fourHeap[go.shape.*uint8]).push`), and `init` funcs, which it
# names `init.0`, `init.1`, ...
#
# The script also fails on a stale allowlist entry: one that is linked now,
# or that no longer names a declared func. Each allowlist line is
# `symbol  # reason`; blank lines and lines starting with # are ignored.
#
# Usage, from anywhere in the repository: bash .github/scripts/linkmap.sh
# It builds into a temporary directory and removes it on exit (~10 s).
set -euo pipefail

cd "$(dirname "$0")/../.."
allow=.github/linkmap-allow.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"

n=0
for p in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/...); do
	n=$((n + 1))
	go build -gcflags=all=-l -o "$tmp/bin/$n-$(basename "$p")" "$p"
done
(cd perfbench && go build -gcflags=all=-l -o "$tmp/bin/perfbench" .)
n=$((n + 1))

for b in "$tmp"/bin/*; do go tool nm "$b"; done | awk '{print $NF}' |
	grep -o 'archertwin/internal/.*' | sed 's#^archertwin/internal/##' | sort -u >"$tmp/linked"

# One line per top-level func declaration: "pkg Func" or "pkg * T M" /
# "pkg - T M" for pointer and value receivers. Generic receivers and init
# are dropped here.
find internal -name '*.go' ! -name '*_test.go' | sort | while read -r f; do
	pkg=$(dirname "${f#internal/}")
	sed -nE -e '/^func \([^)]*\[/d' -e "s#^func \(([A-Za-z_][A-Za-z0-9_]* )?(\*?)([A-Za-z0-9_]+)\) ([A-Za-z0-9_]+).*#$pkg \2- \3 \4#p" -e "s#^func ([A-Za-z0-9_]+).*#$pkg \1#p" "$f"
done | awk '
	NF == 2 { if ($2 != "init") print $1 "." $2; next }
	$2 == "*-" { print $1 ".(*" $3 ")." $4; next }
	{ print $1 "." $3 "." $4 }' | sort -u >"$tmp/declared"

while read -r s; do
	# A value method T.M is also linked as (*T).M.
	ptr=$(sed -E 's/^(.+)\.([A-Za-z0-9_]+)\.([A-Za-z0-9_]+)$/\1.(*\2).\3/' <<<"$s")
	grep -qxF -e "$s" -e "$ptr" "$tmp/linked" || echo "$s"
done <"$tmp/declared" >"$tmp/unlinked"

awk '$1 !~ /^#/ && NF { print $1 }' "$allow" | sort >"$tmp/allowed"

status=0
dups=$(uniq -d "$tmp/allowed")
if [ -n "$dups" ]; then
	echo "linkmap: duplicate entries in $allow:"
	sed 's/^/  /' <<<"$dups"
	status=1
fi
sort -u -o "$tmp/allowed" "$tmp/allowed"
new=$(comm -23 "$tmp/unlinked" "$tmp/allowed")
if [ -n "$new" ]; then
	echo "linkmap: internal/ code that no program links (delete it, or list it in $allow with a reason):"
	sed 's/^/  /' <<<"$new"
	status=1
fi
stale=$(comm -13 "$tmp/unlinked" "$tmp/allowed")
if [ -n "$stale" ]; then
	echo "linkmap: stale entries in $allow (now linked, or no longer declared):"
	sed 's/^/  /' <<<"$stale"
	status=1
fi
if [ "$status" -eq 0 ]; then
	echo "linkmap: $(wc -l <"$tmp/declared") internal/ funcs, $(wc -l <"$tmp/unlinked") unlinked, all in $allow; $n programs"
fi
exit "$status"
