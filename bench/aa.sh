#!/usr/bin/env bash
# A/A calibration of the benchmark: the same code measured twice must agree
# with itself before it may judge a change.
#
#   bash bench/aa.sh aa     [runs-per-set=5]  two interleaved sets (ABAB...) per
#                                             workload, on seed 1 and on seed 2;
#                                             per metric both medians and their
#                                             relative difference, held to the
#                                             paired tolerance: 0.10, and 0.15
#                                             for setup_s
#   bash bench/aa.sh spread [runs=10]         one run per seed 101, 102, ...;
#                                             per metric the quartile distance
#                                             as a share of the median, held to
#                                             the bound in BENCHMARK.json
#
# Prints markdown (bench/AA.md is this output) and exits 1 on a breach. Raw
# result lines are kept in .bench_build/aa/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# go version below: same redirected, telemetry-off config as run.sh
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
mode=${1:-aa}
n=${2:-}
out=.bench_build/aa/$mode
rm -rf "$out" && mkdir -p "$out"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

one() { # workload seed label
	bash bench/run.sh --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$1.$3.jsonl"
}

case $mode in
aa)
	for seed in 1 2; do
		for w in $workloads; do
			for _ in $(seq "${n:-5}"); do
				one "$w" "$seed" "seed$seed.A"
				one "$w" "$seed" "seed$seed.B"
			done
		done
	done
	;;
spread)
	for i in $(seq "${n:-10}"); do
		for w in $workloads; do one "$w" $((100 + i)) seeds; done
	done
	;;
*)
	echo "usage: bash bench/aa.sh aa|spread [runs]" >&2
	exit 2
	;;
esac

python3 - "$mode" "$out" <<'EOF'
import glob, json, os, statistics, sys

mode, out = sys.argv[1], sys.argv[2]
bench = json.load(open("BENCHMARK.json"))
metrics = bench["end_to_end"]
# What interleaved sets of the same code must agree within. Tighter than the
# bounds in BENCHMARK.json, which also have to absorb the drift of the machine
# between two sets taken at different times.
paired = {m["name"]: 0.15 if m["name"] == "setup_s" else 0.10 for m in metrics}
breaches = 0

def load(path):
    runs = [json.loads(line) for line in open(path)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0, path
    return {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in metrics}

print("machine: `%s`, %d CPUs; %s" % (os.uname().release, os.cpu_count(), os.popen("go version").read().strip()))
print()
for w in [w["name"] for w in bench["workloads"]]:
    if mode == "aa":
        for seed in (1, 2):
            a = load("%s/%s.seed%d.A.jsonl" % (out, w, seed))
            b = load("%s/%s.seed%d.B.jsonl" % (out, w, seed))
            print("### %s, seed %d (%d + %d runs, interleaved)\n" % (w, seed, len(a["setup_s"]), len(b["setup_s"])))
            print("| metric | unit | median A | median B | difference | paired tolerance | |")
            print("|---|---|---:|---:|---:|---:|---|")
            for m in metrics:
                ma, mb = statistics.median(a[m["name"]]), statistics.median(b[m["name"]])
                diff = abs(ma - mb) / ma
                bad = diff > paired[m["name"]]
                breaches += bad
                print("| `%s` | %s | %.4g | %.4g | %.1f%% | %.0f%% | %s |" % (m["name"], m["unit"], ma, mb, 100 * diff, 100 * paired[m["name"]], "BREACH" if bad else "ok"))
            print()
    else:
        v = load("%s/%s.seeds.jsonl" % (out, w))
        print("### %s (%d seeds)\n" % (w, len(v["setup_s"])))
        print("| metric | unit | median | quartile distance / median | bound | |")
        print("|---|---|---:|---:|---:|---|")
        for m in metrics:
            q = statistics.quantiles(v[m["name"]], n=4)
            med = statistics.median(v[m["name"]])
            spread = (q[2] - q[0]) / med
            bad = spread > m["bound"] and m["name"] != "setup_s"
            breaches += bad
            note = "BREACH" if bad else ("ok" if spread <= m["bound"] / 3 else "ok, above a third of the bound")
            print("| `%s` | %s | %.4g | %.1f%% | %.0f%% | %s |" % (m["name"], m["unit"], med, 100 * spread, 100 * m["bound"], note))
        print()
sys.exit(1 if breaches else 0)
EOF
