#!/bin/sh
# identity: does the working tree print exactly what revision <rev> prints?
# Builds cebench and cescale at <rev> (exported with git archive, so .git
# gains no worktree) and at the working tree, then cmps
#   - the stdout of `cebench -parallel 1 -seed S all` at six seeds and, at
#     seed 2023 and -parallel 2, the stdout, -trace-out and -metrics-out
#     files;
#   - the stdout of `cescale -mode M` for every mode at seeds 2023 and 7:
#     profile for two models, tune/train/run under a -budget (MobileNet) and
#     a -qos (LR-Higgs); run mode also writes and compares its -trace CSV
#     and its -trace-out/-metrics-out files. A cescale exit status other
#     than 0 is appended to its stdout, so it is compared too;
#   - the stdout of the benchmark's three macro command lines at benchmark
#     size (cmd/bench/workloads.go: fleet, day-chaos, trace), and of
#     macro-trace replaying a small -trace-file over 8 tenants, each at
#     -shards 1 -sim-workers 1 and -shards 8 -sim-workers 2, at seeds 2023
#     and 7, with an exit status compared the same way.
# Prints one line per comparison and exits 1 if any differs. Usage:
#   sh scripts/identity.sh <rev>      (or: make identity BASE=<rev>)
set -eu
[ $# -eq 1 ] || { echo "usage: $0 <rev>" >&2; exit 2; }
rev=$1
cd "$(dirname "$0")/.."
t=$(mktemp -d)
trap 'rm -rf "$t"' EXIT
mkdir "$t/src" "$t/base" "$t/head"
git archive "$rev" | tar -x -C "$t/src"
for c in cebench cescale; do
	(cd "$t/src" && go build -o "$t/base/$c" "./cmd/$c")
	go build -o "$t/head/$c" "./cmd/$c"
done
bad=0 n=0
same() { # same <label> <file in base/ and head/>
	n=$((n + 1))
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
for s in 2023 7; do
	for m in profile tune train run; do
		for c in "MobileNet-Cifar10 -budget 10" "LR-Higgs -qos 21600"; do
			set -- -model $c # c splits into model, flag and value
			[ "$m" = profile ] && set -- "$1" "$2"
			f="cescale.$m.$2.$s"
			for v in base head; do
				out= # run mode's three output files; mktemp paths split on no space
				[ "$m" = run ] && out="-trace $t/$v/$f.csv -trace-out $t/$v/$f.jsonl -metrics-out $t/$v/$f.json"
				"$t/$v/cescale" "$@" $out -mode "$m" -seed "$s" >"$t/$v/$f" 2>/dev/null || echo "exit $?" >>"$t/$v/$f"
			done
			same "cescale $* -mode $m -seed $s stdout" "$f"
			if [ "$m" = run ]; then
				for x in csv jsonl json; do
					same "cescale $* -mode $m -seed $s $x" "$f.$x"
				done
			fi
		done
	done
done
printf '2,7,0,3\n5 0 0 1\n1,1,4,2\n0 3 3 0\n6,2,1,1\n' >"$t/trace.csv"
for s in 2023 7; do
	for k in "1 1" "8 2"; do
		set -- $k
		i=0
		for line in "-parallel 1 -fleet-tenants 1500 macro-fleet" \
			"-parallel 1 -macro-tenants 16 -macro-per-tenant 7500 -chaos-tenants 16 -chaos-per-tenant 5000 macro-day macro-chaos" \
			"-traffic-kind diurnal -traffic-tenants 64 -traffic-rate 1.6 -traffic-horizon 900 macro-trace" \
			"-traffic-kind trace -trace-file $t/trace.csv -traffic-tenants 8 macro-trace"; do
			i=$((i + 1))
			f="macro.$i.$1x$2.$s"
			for v in base head; do
				"$t/$v/cebench" -shards "$1" -sim-workers "$2" -seed "$s" $line >"$t/$v/$f" 2>/dev/null || echo "exit $?" >>"$t/$v/$f"
			done
			same "cebench -shards $1 -sim-workers $2 -seed $s $line stdout" "$f"
		done
	done
done
echo "identity: $bad of $n comparisons differ from $rev"
[ "$bad" -eq 0 ]
