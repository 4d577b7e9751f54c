#!/usr/bin/env python3
"""Runs two sets of every benchmark workload and reports how steady they are.

    python3 perfbench/steadiness.py

Run from the repository root. Each set runs every workload of
BENCHMARK.json once per seed (seeds 1..10) for the run length BENCHMARK.json
gives, each run a separate process started through run.py. For
every end-to-end metric it prints each set's median and quartiles, the
spread (interquartile range over median) and the shift of the second
median against the first in the metric's worse direction, beside the
metric's bound in BENCHMARK.json. It also checks that every simulated
metric is bit-equal between the two runs of each seed (and across all
seeds on paper_tables, whose inputs do not depend on the seed), and that
the share of failed operations is the same in every run of a workload.
Exits 1 if
a check fails or a spread or shift exceeds its bound (setup_s's spread is
reported but not bounded).
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10

# Metrics of the simulated clock: deterministic per seed.
SIMULATED = {"sim_gbps", "sim_time"}
# Workloads whose simulated inputs do not depend on the seed at all.
SEED_FREE = {"paper_tables"}


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode or not lines:
        sys.exit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(1, RUNS + 1)

    # sets[s][workload][seed] = result
    sets = []
    for s in range(2):
        results = {w: {} for w in workloads}
        for w in workloads:
            for seed in seeds:
                results[w][seed] = run_once(w, seed, bench["run_seconds"])
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr)
        sets.append(results)

    ok = True
    for w in workloads:
        runs = [sets[s][w][seed] for s in range(2) for seed in seeds]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"\n== {w}: correct={correct} failed share="
              f"{sorted(share_set)} {'ok' if len(share_set) == 1 else 'DIFFERS'}")
        ok &= correct and len(share_set) == 1
        print(f"{'metric':28} {'set1 med':>12} {'q1':>12} {'q3':>12} "
              f"{'spread1':>8} {'set2 med':>12} {'spread2':>8} {'shift':>8} "
              f"{'bound':>6}  verdict")
        for name in runs[0]["metrics"]:
            meta = metrics[name]
            per_set = [[sets[s][w][seed]["metrics"][name]["value"]
                        for seed in seeds] for s in range(2)]
            stats = [statistics.quantiles(v, n=4) for v in per_set]
            spreads = [(q3 - q1) / med if med else float("inf")
                       for q1, med, q3 in stats]
            m1, m2 = stats[0][1], stats[1][1]
            shift = (m2 - m1) / m1 if m1 else 0.0
            if meta["better"] == "higher":
                shift = -shift
            bound = meta["bound"]
            verdict = []
            if name != "setup_s" and max(spreads) > bound:
                verdict.append("SPREAD")
            elif name != "setup_s" and max(spreads) > bound / 3:
                verdict.append("spread>bound/3")
            if shift > bound:
                verdict.append("SHIFT")
            if name in SIMULATED:
                same_seed = all(per_set[0][i] == per_set[1][i]
                                for i in range(len(per_set[0])))
                if not same_seed:
                    verdict.append("NOT-BIT-EQUAL")
                if w in SEED_FREE and len(set(per_set[0] + per_set[1])) != 1:
                    verdict.append("SEED-DEPENDENT")
            ok &= not any(v.isupper() for v in verdict)
            print(f"{name:28} {m1:12.6g} {stats[0][0]:12.6g} {stats[0][2]:12.6g} "
                  f"{spreads[0]:8.4f} {m2:12.6g} {spreads[1]:8.4f} "
                  f"{shift:+8.4f} {bound:6.3f}  {' '.join(verdict) or 'ok'}")
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
