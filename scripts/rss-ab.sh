#!/bin/sh
# rss-ab: does the working tree's cebench peak lower (or higher) in resident
# memory, and run faster (or slower), than revision <rev>'s on one command
# line? Builds cebench at <rev> (exported with git archive, so .git gains no
# worktree) and at the working tree, then runs 10 pairs of
# `cebench -rusage <args>`, the side that goes first alternating from pair to
# pair, and reads each run's peak RSS (VmHWM on Linux) from stderr and its
# wall time (process start to exit, from GNU date's nanoseconds) around it.
# Prints every pair; each side's RSS median and quartiles and how many pairs
# each side was lower in; each side's fastest and median wall time with
# quartiles and how many pairs each side was faster in. A single run's peak
# moves by up to ~1 MB on these 6-30 MB workloads, and a single `paper` run's
# wall time by tens of percent on a shared host, so only a paired,
# alternating A/B resolves a change of that size. The default command line
# is the benchmark's fleet workload (1,500 macro-fleet controllers). Usage:
#   sh scripts/rss-ab.sh <rev> [cebench args]
#   make rss-ab BASE=<rev> [ARGS='<cebench args>']
set -eu
[ $# -ge 1 ] || { echo "usage: $0 <rev> [cebench args]" >&2; exit 2; }
rev=$1
shift
[ $# -gt 0 ] || set -- -parallel 1 -shards 1 -sim-workers 1 -fleet-tenants 1500 macro-fleet
case $(date +%N) in
*[!0-9]* | '') echo "rss-ab: needs a date(1) that prints nanoseconds (%N)" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
mkdir "$t/src"
git archive "$rev" | tar -x -C "$t/src"
(cd "$t/src" && go build -o "$t/base.cebench" ./cmd/cebench)
go build -o "$t/head.cebench" ./cmd/cebench
pairs=10

run() { # run <side> <cebench args...>: one run's peak RSS in kB and wall time in ms
	side=$1
	shift
	t0=$(date +%s%N)
	"$t/$side.cebench" -rusage "$@" 2>"$t/err" >/dev/null
	t1=$(date +%s%N)
	kb=$(sed -n 's/^cebench: peak RSS \([0-9][0-9]*\) kB.*/\1/p' "$t/err")
	[ -n "$kb" ] || { echo "rss-ab: $side run printed no peak RSS:" >&2; cat "$t/err" >&2; exit 1; }
	ms=$(((t1 - t0) / 1000000))
	echo "$kb" >>"$t/$side.kb"
	echo "$ms" >>"$t/$side.ms"
	echo "$kb $ms"
}

echo "rss-ab: $rev (base) vs working tree (head): cebench -rusage $*"
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$@")
		h=$(run head "$@")
		order="base first"
	else
		h=$(run head "$@")
		b=$(run base "$@")
		order="head first"
	fi
	echo "$b $h" >>"$t/pairs"
	echo "$b $h" | awk -v i="$i" -v o="$order" '{
		printf "rss-ab: pair %d (%s): base %d kB %d ms, head %d kB %d ms\n", i, o, $1, $2, $3, $4 }'
	i=$((i + 1))
done

stats() { # stats <side> <kb|ms>: median and quartiles (medians of the halves)
	sort -n "$t/$1.$2" | awk -v side="$1" -v unit="$2" -v dir="$t" '
		{ v[NR] = $1 }
		function med(lo, hi,  n, m) {
			n = hi - lo + 1; m = lo + int((n - 1) / 2)
			return n % 2 ? v[m] : (v[m] + v[m + 1]) / 2
		}
		END {
			h = int(NR / 2)
			lo = med(1, h); mid = med(1, NR); hi = med(NR - h + 1, NR)
			if (unit == "kb")
				printf "rss-ab: %s: median %.0f kB (%.2f MB), quartiles %.0f-%.0f kB (IQR %.0f kB)\n",
					side, mid, mid / 1024, lo, hi, hi - lo
			else
				printf "rss-ab: %s: wall fastest %d ms, median %.0f ms, quartiles %.0f-%.0f ms (IQR %.0f ms)\n",
					side, v[1], mid, lo, hi, hi - lo
			print mid, hi - lo >(dir "/" side "." unit ".stat")
		}'
}
compare() { # compare <kb|ms> <what>: the medians' difference against the base IQR
	read -r bmed biqr <"$t/base.$1.stat"
	read -r hmed _ <"$t/head.$1.stat"
	awk -v b="$bmed" -v h="$hmed" -v iqr="$biqr" -v u="$1" -v what="$2" 'BEGIN {
		unit = u == "kb" ? "kB" : "ms"
		printf "rss-ab: %s medians differ by %.0f %s (head - base); the base IQR is %.0f %s\n", what, h - b, unit, iqr, unit }'
}
stats base kb
stats head kb
compare kb "peak RSS"
awk '$3 < $1 { h++ } $1 < $3 { b++ } $1 == $3 { e++ }
	END { printf "rss-ab: head lower in %d of %d pairs, base lower in %d, equal in %d\n", h, NR, b, e }' "$t/pairs"
stats base ms
stats head ms
compare ms "wall time"
awk '$4 < $2 { h++ } $2 < $4 { b++ } $2 == $4 { e++ }
	END { printf "rss-ab: head faster in %d of %d pairs, base faster in %d, equal in %d\n", h, NR, b, e }' "$t/pairs"
