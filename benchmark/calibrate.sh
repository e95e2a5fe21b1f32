#!/usr/bin/env bash
# Runs the benchmark N times per workload back to back (seeds FIRST ..
# FIRST+N-1, workloads interleaved) and prints, per workload and metric of
# an untraced run, the min, median and max, the quartile spread (Q3 - Q1)
# and the range (max - min), both as a share of the median, next to the
# metric's bound in BENCHMARK.json and its ceiling (the most its bound may
# be; see benchmark/README.md). Metrics that BENCHMARK.json does not list
# as end-to-end are printed as ungated.
#
#   benchmark/calibrate.sh [--runs N] [--first-seed FIRST] [--seconds S]
#                          [--out FILE] [--against FILE] [WORKLOAD...]
#
# Exits non-zero when the range of an end-to-end metric exceeds its bound,
# or when --against names an earlier --out file whose median an
# end-to-end metric's new median is worse than by more than its bound.
# Quartiles are Python's statistics.quantiles(values, n=4).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
exec python3 - "$@" <<'EOF'
import argparse, json, re, statistics, subprocess, sys

# The widest bound each end-to-end metric may have. A metric whose range
# over a calibration exceeds its ceiling is left ungated instead.
CEILING = {"ops_per_s": 0.10, "p50_us": 0.10, "hit_ratio": 0.001,
           "bytes_per_item": 0.01, "setup_s": 0.10}

p = argparse.ArgumentParser()
p.add_argument("--runs", type=int, default=10)
p.add_argument("--first-seed", type=int, default=1)
p.add_argument("--seconds", type=int)
p.add_argument("--out")
p.add_argument("--against")
p.add_argument("workloads", nargs="*")
a = p.parse_args()

bench = json.load(open("BENCHMARK.json"))
seconds = a.seconds or bench["run_seconds"]
workloads = a.workloads or [w["name"] for w in bench["workloads"]]
gated = {m["name"]: m for m in bench["end_to_end"]}

line = re.compile(r"^([\w.-]+)/([\w.-]+) (\S+) (\S+)$")
values, units = {w: {} for w in workloads}, {}
for seed in range(a.first_seed, a.first_seed + a.runs):
    for w in workloads:
        cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                             text=True).stdout.strip().splitlines()
        result = json.loads(out[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"{w} seed {seed}: incorrect result {result}")
        if set(result["metrics"]) != set(gated):
            sys.exit(f"{w} seed {seed}: result metrics {sorted(result['metrics'])}"
                     f" are not BENCHMARK.json's {sorted(gated)}")
        got = {}
        for m, v in result["metrics"].items():
            got[m], units[m] = v["value"], v["unit"]
        for l in out[:-1]:
            if (x := line.match(l)) and x[1] == w and x[2] not in got:
                got[x[2]], units[x[2]] = float(x[3]), x[4]
        for m, v in got.items():
            values[w].setdefault(m, []).append(v)
        print(f"# {w} seed {seed}: " + " ".join(
            f"{m}={v:.6g}" for m, v in got.items()), file=sys.stderr,
            flush=True)

if a.out:
    json.dump(values, open(a.out, "w"), indent=1)
before = json.load(open(a.against)) if a.against else None

bad = []
print("| workload | metric | unit | min | median | max | IQR/median "
      "| range/median | bound | ceiling |")
print("|---|---|---|---|---|---|---|---|---|---|")
for w in workloads:
    for m, v in values[w].items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med,) * 3
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(v) - min(v)) / med if med else 0.0
        bound = gated[m]["bound"] if m in gated else None
        print(f"| {w} | {m} | {units[m]} | {min(v):.6g} | {med:.6g} "
              f"| {max(v):.6g} | {iqr:.2%} | {rng:.2%} "
              f"| {'ungated' if bound is None else bound} "
              f"| {CEILING.get(m, '')} |")
        if bound is not None and rng > bound:
            bad.append(f"{w}/{m}: range/median {rng:.4f} > bound {bound}")
        if before is not None and m in before.get(w, {}):
            old = statistics.median(before[w][m])
            higher = gated[m]["better"] == "higher" if m in gated \
                else m in ("ops_per_s", "hit_ratio")
            worse = (old - med) / old if higher else (med - old) / old
            print(f"#   {w}/{m}: median {old:.6g} -> {med:.6g} "
                  f"({worse:+.4f} worse)", file=sys.stderr)
            if bound is not None and worse > bound:
                bad.append(f"{w}/{m}: median worse by {worse:.4f} > bound")
for b in bad:
    print("FAIL " + b, file=sys.stderr)
sys.exit(1 if bad else 0)
EOF
