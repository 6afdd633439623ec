#!/usr/bin/env python3
"""Hold the oracle against the program on every pairwise-coprime triple <= MAX.

    python3 bench/selftest.py 15

For each triple, and each n = 4 and n = 5 set that batch files use:
``brieskorn`` as JSON and as a table, the same fibration as
raw ``seifert`` data in both orientations, then ``verify --max MAX`` and each
perturbation scenario on a spread of eps.  Requests run in this process
through ``seifertlab.cli.main``.  Exits 1 if any output disagrees with the
oracle, apart from the known faults of workloads.py.
"""

from __future__ import annotations

import os
import sys

import run  # puts this directory on sys.path and locates src/

import checks
import oracle

sys.path.insert(0, run.SRC)
from seifertlab import cli  # noqa: E402


# the n = 4 and n = 5 sets that batch files draw from
LARGER_SETS = [(3, 5, 7, 11), (2, 7, 9, 11), (2, 5, 11, 13), (3, 5, 7, 13), (2, 7, 9, 13), (2, 3, 5, 7, 11)]


def requests(max_exponent: int):
    for t in oracle.coprime_triples(max_exponent) + LARGER_SETS:
        yield {"kind": "brieskorn", "alphas": list(t), "json": True}
        yield {"kind": "brieskorn", "alphas": list(reversed(t))}
        b, fibers = oracle.brieskorn_fibers(t)
        yield {"kind": "seifert", "b": b, "fibers": [list(f) for f in fibers]}
        b, fibers = oracle.reversed_fibers(b, fibers)
        yield {"kind": "seifert", "b": b, "fibers": [list(f) for f in fibers], "json": True}
    for as_json in (False, True):
        yield {"kind": "verify", "max": max_exponent, "json": as_json}
        for scenario in ("circle", "sphere", "linear"):
            eps = ["0.2", "-0.2", "0.05", "-0.01", "0.001", "-0.001"]
            yield {"kind": "perturb", "scenario": scenario, "eps": eps, "json": as_json, "assert": True}


def main() -> int:
    max_exponent = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    checked = bad = 0
    for req in requests(max_exponent):
        problems = checks.check(req, *run.replay(cli, checks.argv(req)))
        checked += 1
        if problems:
            bad += 1
            print(f"{' '.join(checks.argv(req))}: {problems[:3]}")
    print(f"{checked} requests, {bad} disagree with the oracle")
    return 1 if bad else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    sys.exit(main())
