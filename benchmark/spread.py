#!/usr/bin/env python3
"""Steadiness check, the way the benchmark driver judges it.

Runs BENCHMARK.json's command ten times per workload, each with another
--seed, and prints for every end-to-end metric the distance between the first
and third quartile of the ten medians as a share of their median. The driver
accepts a spread up to the metric's bound (setup_s exempt); aim for a third.

    python3 benchmark/spread.py [workload ...]      # from the repository root
"""
import json
import statistics
import subprocess
import sys

spec = json.load(open("BENCHMARK.json"))
names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
worst = 0.0
for name in names:
    runs = []
    for seed in range(101, 111):
        cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        last = json.loads(out.strip().splitlines()[-1])
        assert last["correct"] and last["failed"] == 0, last
        runs.append(last["metrics"])
    for m in spec["end_to_end"]:
        values = [r[m["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        verdict = "ok" if spread < m["bound"] / 3 else "wide" if spread < m["bound"] else "TOO WIDE"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{name:11s} {m['name']:12s} median {med:9.4f} {m['unit']:3s} "
              f"spread {100 * spread:5.2f}%  bound {100 * m['bound']:.0f}%  {verdict}  "
              + " ".join(f"{v:.3f}" for v in values), flush=True)
sys.exit(0 if worst < 1 else 1)
