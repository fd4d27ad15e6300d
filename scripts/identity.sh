#!/bin/sh
# identity: does the working tree print exactly what revision <rev> prints?
# Builds cebench at <rev> (exported with git archive, so .git gains no
# worktree) and at the working tree, then cmps the stdout of
# `cebench -parallel 1 -seed S all` at six seeds and, at seed 2023 and
# -parallel 2, the stdout, -trace-out and -metrics-out files. Prints one line
# per comparison and exits 1 if any differs. Usage:
#   sh scripts/identity.sh <rev>      (or: make identity BASE=<rev>)
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <rev>" >&2; exit 2; }
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
mkdir "$t/src" "$t/base" "$t/head"
git archive "$1" | tar -x -C "$t/src"
(cd "$t/src" && go build -o "$t/base/cebench" ./cmd/cebench)
go build -o "$t/head/cebench" ./cmd/cebench
bad=0
same() { # same <label> <file in base/ and head/>
	if cmp -s "$t/base/$2" "$t/head/$2"; then
		echo "identity: $1: identical ($(wc -c <"$t/head/$2") bytes)"
	else
		echo "identity: $1: DIFFERS"; bad=$((bad + 1))
	fi
}
for s in 2023 7 11 99 1234 5; do
	for v in base head; do
		"$t/$v/cebench" -parallel 1 -seed "$s" all >"$t/$v/stdout.$s" 2>/dev/null
	done
	same "stdout -parallel 1 -seed $s all" "stdout.$s"
done
for v in base head; do
	"$t/$v/cebench" -parallel 2 -seed 2023 -trace-out "$t/$v/trace.jsonl" \
		-metrics-out "$t/$v/metrics.json" all >"$t/$v/stdout.x" 2>/dev/null
done
for f in stdout.x trace.jsonl metrics.json; do
	same "-parallel 2 -seed 2023 all $f" "$f"
done
echo "identity: $bad of 9 comparisons differ from $1"
[ "$bad" -eq 0 ]
