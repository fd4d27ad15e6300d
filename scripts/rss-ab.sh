#!/bin/sh
# rss-ab: does the working tree's cebench peak lower (or higher) in resident
# memory than revision <rev>'s on one command line? Builds cebench at <rev>
# (exported with git archive, so .git gains no worktree) and at the working
# tree, then runs 10 pairs of `cebench -rusage <args>`, the side that goes
# first alternating from pair to pair, and reads each run's peak RSS (VmHWM
# on Linux) from stderr. Prints every pair, each side's median and quartiles,
# and how many pairs each side won. A single run's peak moves by up to ~1 MB
# on these 6-8 MB workloads, so only a paired, alternating A/B resolves a
# change of that size. The default command line is the benchmark's fleet
# workload (1,500 macro-fleet controllers). Usage:
#   sh scripts/rss-ab.sh <rev> [cebench args]
#   make rss-ab BASE=<rev> [ARGS='<cebench args>']
set -eu
[ $# -ge 1 ] || { echo "usage: $0 <rev> [cebench args]" >&2; exit 2; }
rev=$1
shift
[ $# -gt 0 ] || set -- -parallel 1 -shards 1 -sim-workers 1 -fleet-tenants 1500 macro-fleet
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
mkdir "$t/src"
git archive "$rev" | tar -x -C "$t/src"
(cd "$t/src" && go build -o "$t/base.cebench" ./cmd/cebench)
go build -o "$t/head.cebench" ./cmd/cebench
pairs=10

peak() { # peak <side> <cebench args...>: one run's peak RSS in kB
	side=$1
	shift
	"$t/$side.cebench" -rusage "$@" 2>"$t/err" >/dev/null
	kb=$(sed -n 's/^cebench: peak RSS \([0-9][0-9]*\) kB.*/\1/p' "$t/err")
	[ -n "$kb" ] || { echo "rss-ab: $side run printed no peak RSS:" >&2; cat "$t/err" >&2; exit 1; }
	echo "$kb" >>"$t/$side.kb"
	echo "$kb"
}

echo "rss-ab: $rev (base) vs working tree (head): cebench -rusage $*"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(peak base "$@")
		h=$(peak head "$@")
		order="base first"
	else
		h=$(peak head "$@")
		b=$(peak base "$@")
		order="head first"
	fi
	echo "$b $h" >>"$t/pairs"
	echo "rss-ab: pair $i ($order): base $b kB, head $h kB"
	i=$((i + 1))
done

stats() { # stats <side>: median and quartiles (medians of the halves) in kB
	sort -n "$t/$1.kb" | awk -v side="$1" -v dir="$t" '
		{ v[NR] = $1 }
		function med(lo, hi,  n, m) {
			n = hi - lo + 1; m = lo + int((n - 1) / 2)
			return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2
		}
		END {
			h = int(NR / 2)
			printf "rss-ab: %s: median %.0f kB (%.2f MB), quartiles %.0f-%.0f kB (IQR %.0f kB)\n",
				side, med(1, NR), med(1, NR) / 1024, med(1, h), med(NR - h + 1, NR), med(NR - h + 1, NR) - med(1, h)
			print med(1, NR), med(NR - h + 1, NR) - med(1, h) >(dir "/" side ".stat")
		}'
}
stats base
stats head
read -r bmed biqr <"$t/base.stat"
read -r hmed _ <"$t/head.stat"
awk -v b="$bmed" -v h="$hmed" -v iqr="$biqr" 'BEGIN {
	printf "rss-ab: medians differ by %.0f kB (head - base); the base IQR is %.0f kB\n", h - b, iqr }'
awk '$2 < $1 { h++ } $1 < $2 { b++ } $1 == $2 { e++ }
	END { printf "rss-ab: head lower in %d of %d pairs, base lower in %d, equal in %d\n", h, NR, b, e }' "$t/pairs"
