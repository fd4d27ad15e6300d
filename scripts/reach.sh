#!/bin/sh
# reach: which functions does no shipped command ever run? Builds cebench,
# cescale, cescalint and the examples with coverage over the whole module,
# drives them through the fixed command list below, prints every function
# outside cmd/bench that never executed, and fails on any that
# scripts/reach.keep does not justify. See DESIGN.md "Reach".
set -eu
cd "$(dirname "$0")/.."
t=$(mktemp -d) && mkdir "$t/cov"
trap 'rm -rf "$t"' EXIT
for p in cmd/cebench cmd/cescale cmd/cescalint examples/*; do
	go build -cover -coverpkg=./... -o "$t/$(basename "$p")" "./$p"
done
printf '2,7,0,3\n5 0 0 1\n' >"$t/azure.csv"
b="$t/cebench" s="$t/cescale" macro="macro-day macro-chaos macro-fleet"
GOCOVERDIR="$t/cov" sh -eu >/dev/null 2>"$t/log" <<EOF || { cat "$t/log"; exit 1; }
$b list
$b -seed 2023 -rusage -trace-out $t/t.jsonl -metrics-out $t/m.json all
$b -seed 7 -parallel 1 all
$b -format json tab1 fig19 && $b -format csv -trace-out $t/t.json tab2 && $b -format html tab1 fig9
$b -traffic-kind poisson -shards 1 -sim-workers 1 macro-trace
$b -traffic-kind bursty -shards 4 -sim-workers 2 macro-trace
$b -traffic-kind diurnal -shards 8 -sim-workers 2 macro-trace
$b -traffic-kind trace -trace-file $t/azure.csv -traffic-tenants 2 macro-trace
$b -shards 4 -sim-workers 1 $macro && $b -shards 8 -sim-workers 2 -trace-out $t/t.jsonl $macro
$s -mode profile && $s -mode train -budget 5 && $s -model MobileNet-Cifar10 -mode run -budget 4
$s -mode tune -trials 64 -qos 7200 -trace-out $t/t.json -metrics-out $t/m.json
$s -mode run -qos 21600 -trace $t/e.csv -trace-out $t/t.jsonl -metrics-out $t/m.json
$t/cescalint ./...
for e in hyperparam qos-training quickstart storage-explorer workflow; do $t/\$e; done
EOF
go tool covdata textfmt -i="$t/cov" -o="$t/cov.txt"
go tool cover -func="$t/cov.txt" | awk -v keep=scripts/reach.keep '
	BEGIN { while ((getline l <keep) > 0) if (l !~ /^#/ && split(l, f, " ")) ok[f[1]] = 1 }
	$NF == "0.0%" && $1 !~ /^repro\/cmd\/bench\// {
		id = $1; sub(/^repro\//, "", id); sub(/\/[^\/]*$/, "", id); id = id "." $2; n++; seen[id] = 1
		if (id in ok) print "reach: kept", id; else { bad++; print "reach: NEVER RUN, not on reach.keep:", id, "(" $1 ")" }
	}
	END { for (id in ok) if (!(id in seen)) { bad++; print "reach: STALE reach.keep line (now run, or gone):", id }
		print "reach:", n + 0, "never-run functions outside cmd/bench,", bad + 0, "findings"; exit bad > 0 }'
