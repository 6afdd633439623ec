#!/usr/bin/env python3
"""Run two sets of benchmark runs and hold them against BENCHMARK.json's bounds.

    python3 bench/compare.py

Runs every workload of BENCHMARK.json ten times with seeds 1..10 (set one)
and ten times with seeds 11..20 (set two).  For every workload and
end-to-end metric it prints each set's median and quartile spread (Q3 - Q1
over the median, from ``statistics.quantiles(values, n=4)``) and fails when:

* a spread exceeds the metric's bound;
* set two's median is worse than set one's by more than the bound;
* the share of failed operations differs between the sets, or a run is not
  correct or exits non-zero.

Every run's result line is kept in .bench_work/compare.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10  # seeds per set


def run_set(spec: dict, workload: str, seeds) -> list[dict]:
    results = []
    for seed in seeds:
        cmd = spec["command"] + [
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        results.append({"seed": seed, "result": result})
        print(f"  {workload} seed {seed}: {lines[-1] if lines else proc.stderr[-300:]}", file=sys.stderr)
    return results


def summarize(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ok = True
    record = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [run_set(spec, workload, range(k * RUNS + 1, (k + 1) * RUNS + 1)) for k in range(2)]
        record[workload] = sets
        if any(r["result"] is None or not r["result"]["correct"] for s in sets for r in s):
            ok = False
            print(f"{workload}: a run failed or was not correct")
            continue
        shares = [{Fraction(r["result"]["failed"], r["result"]["attempted"]) for r in s} for s in sets]
        share_ok = all(len(s) == 1 for s in shares) and len({next(iter(s)) for s in shares}) == 1
        ok &= share_ok
        print(f"{workload}: failed share {[sorted(map(str, s)) for s in shares]} {'ok' if share_ok else 'DIFFERS'}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["result"]["metrics"][name]["value"] for r in s]) for s in sets]
            cells = "  ".join(f"median {m:12.4f} spread {sp:6.3f}" for m, sp in stats)
            verdicts = []
            if any(sp > bound for _, sp in stats):
                verdicts.append("SPREAD")
            (m1, _), (m2, _) = stats
            shift = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            cells += f"  worse by {shift:+.3f}"
            if shift > bound:
                verdicts.append("SHIFT")
            ok &= not verdicts
            print(f"  {name:<20} bound {bound:.2f}  {cells}  {' '.join(verdicts) or 'ok'}")
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_work", "compare.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
