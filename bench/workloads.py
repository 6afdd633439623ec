"""Seeded inputs of the three workloads.

Each workload is a list of requests, one *round*, that the benchmark repeats
whole.  The seed picks the fibrations, presentations, eps values, output
formats and order; the make-up of a round (how many calls of each kind, and
the cost band each fibration is drawn from) is fixed, so that every seed puts
about the same work in a round and the figures of different seeds compare.
"""

from __future__ import annotations

import json
import random

import oracle

SCENARIOS = ("circle", "sphere", "linear")
# verify --max 16: 119 triples, ~1.5 s at the seed commit, of which start-up
# is about a seventh.  Longer calls would shrink that share, but the speed
# scaling in run.py tracks the CPU only between calls: at --max 17 (2.2 s)
# the spread of ten runs doubled.
SWEEP_MAX = 16
INTERACTIVE_MAX_VECTORS = 100  # keeps the costliest triples, up to 190 vectors, off the tail

# Operations that fail at the seed commit because of named faults in the
# program.  Their inputs never depend on the seed, and every interactive
# round carries each of them once.
KNOWN_FAULTS = (
    # morse_index uses an absolute gap of 1e-8; the flat-Z1 eigenvalue is ~1.25e-10
    {"kind": "perturb", "scenario": "linear", "eps": ["1e-5"], "assert": True, "fault": True},
    # the report prints lambda = 5 beside the singularity block's -1, all checks ok
    {"kind": "brieskorn", "alphas": [2, 3, 7], "casson": 5, "fault": True},
    # a line that is valid JSON but not an object aborts the batch with a traceback
    {"kind": "batch", "lines": ['{"mode": "brieskorn", "exponents": [2, 3, 7]}', "[1,2]"], "fault": True},
)


def _eps_list(rng: random.Random, count: int) -> list[str]:
    """count values with |eps| log-uniform in [1e-3, 0.2], random sign, 3 digits."""
    out = []
    for _ in range(count):
        magnitude = 10 ** rng.uniform(-3.0, -0.69897)
        out.append(f"{rng.choice((1, -1)) * magnitude:.3g}")
    return out


def _coprime_triples(lo: int, hi: int) -> list[tuple[int, int, int]]:
    return [t for t in oracle.coprime_triples(hi) if t[2] >= lo]


def _shuffled(rng: random.Random, alphas) -> list:
    """The exponents in a seeded order: another presentation of one orbifold."""
    alphas = list(alphas)
    rng.shuffle(alphas)
    return alphas


def _strata(pool, k: int) -> list[list]:
    """pool sorted by lattice-vector count, cut into k bins of equal size."""
    ranked = sorted(pool, key=lambda t: (oracle.vector_count(t), t))
    return [ranked[i * len(ranked) // k:(i + 1) * len(ranked) // k] for i in range(k)]


def interactive(seed: int) -> list[dict]:
    """25 short CLI calls: 22 seeded ones plus the three known faults.

    The eight triples come one from each eighth of the candidates (at most
    INTERACTIVE_MAX_VECTORS lattice vectors) ranked by cost, and the four raw
    Seifert calls one from each quarter, so that every seed's round costs
    about the same.
    """
    rng = random.Random(seed)
    pool = [t for t in _coprime_triples(5, 13) if oracle.vector_count(t) <= INTERACTIVE_MAX_VECTORS]
    triples = [rng.choice(stratum) for stratum in _strata(pool, 8)]
    ops: list[dict] = []
    for i, t in enumerate(triples):
        ops.append({"kind": "brieskorn", "alphas": _shuffled(rng, t), "json": i % 2 == 1})
    for i in range(4):
        b, fibers = oracle.brieskorn_fibers(_shuffled(rng, rng.choice(triples[2 * i:2 * i + 2])))
        if i == 1:
            b, fibers = oracle.reversed_fibers(b, fibers)
        ops.append({"kind": "seifert", "b": b, "fibers": [list(f) for f in fibers], "json": i % 2 == 0})
    for i, choices in enumerate(((5, 6), (7, 8), (9,))):
        ops.append({"kind": "verify", "max": rng.choice(choices), "json": i == 1})
    for i, count in enumerate((1, 2, 3, 1, 2, 3, 2)):
        ops.append(
            {
                "kind": "perturb",
                "scenario": SCENARIOS[i % 3],
                "eps": _eps_list(rng, count),
                "json": i % 2 == 1,
                "assert": i % 2 == 0,
            }
        )
    ops += [dict(f) for f in KNOWN_FAULTS]
    rng.shuffle(ops)
    return ops


def sweep(seed: int) -> list[dict]:
    """One identity-chain sweep; the seed picks its output format."""
    return [{"kind": "verify", "max": SWEEP_MAX, "json": random.Random(seed).random() < 0.5}]


def _pick(rng: random.Random, pool, lo: int, hi: int, k: int):
    band = [t for t in pool if lo <= oracle.vector_count(t) <= hi]
    return rng.sample(band, k)


def batch_lines(seed: int) -> list[str]:
    """One batch file of 24 lines; 8 of them repeat an orbifold of another line.

    Distinct lines: a large triple (950-1050 lattice vectors, exponents up to
    31), the n = 5 set (2,3,5,7,11), two n = 4 sets (300-400 vectors), six
    medium triples (85-105 vectors; two of them as raw Seifert data), two raw
    Seifert lines in the reversed orientation, three perturb lines with 30 eps
    values each and one small verify.  Repeats: the large triple as raw
    Seifert data, two medium lines verbatim and two in another presentation,
    one reversed line, one perturb line and the verify line.
    """
    rng = random.Random(seed)
    pool = _coprime_triples(14, 31)
    # a call of ~2.7 s; (23,29,31) with 2902 vectors would take ~6 s here,
    # too few calls in a run for steady medians
    large = _pick(rng, pool, 950, 1050, 1)
    medium = _pick(rng, pool, 85, 105, 8)
    quads = _pick(rng, [(3, 5, 7, 11), (2, 7, 9, 11), (2, 5, 11, 13), (3, 5, 7, 13), (2, 7, 9, 13)], 300, 400, 2)

    def brieskorn(alphas):
        return {"mode": "brieskorn", "exponents": _shuffled(rng, alphas)}

    def seifert(alphas, reverse=False):
        b, fibers = oracle.brieskorn_fibers(_shuffled(rng, alphas))
        if reverse:
            b, fibers = oracle.reversed_fibers(b, fibers)
        return {"mode": "seifert", "b": b, "fibers": [list(f) for f in fibers]}

    distinct = [brieskorn(t) for t in large]
    distinct.append(brieskorn((2, 3, 5, 7, 11)))
    distinct += [brieskorn(q) for q in quads]
    distinct += [brieskorn(t) for t in medium[:4]] + [seifert(t) for t in medium[4:6]]
    distinct += [seifert(t, reverse=True) for t in medium[6:8]]
    distinct += [
        {"mode": "perturb", "scenario": s, "eps": [float(e) for e in _eps_list(rng, 30)]}
        for s in SCENARIOS
    ]
    distinct.append({"mode": "verify", "max": 9})
    # distinct: 0 large, 1 n=5, 2-3 n=4, 4-7 medium, 8-9 raw medium,
    # 10-11 reversed, 12-14 perturb, 15 verify
    repeats = [
        seifert(large[0]),
        distinct[4],
        distinct[5],
        seifert(medium[2]),
        brieskorn(medium[3]),
        distinct[10],
        distinct[rng.choice((12, 13, 14))],
        distinct[15],
    ]
    lines = [json.dumps(obj) for obj in distinct + repeats]
    rng.shuffle(lines)
    return lines


def batch(seed: int) -> list[dict]:
    return [{"kind": "batch", "lines": batch_lines(seed)}]


WORKLOADS = {"interactive": interactive, "sweep": sweep, "batch": batch}

# One untimed call before timing: it loads the interpreter, the modules and
# their byte-code from disk the way the timed calls will find them.
WARM_UP = {
    "interactive": {"kind": "brieskorn", "alphas": [2, 3, 5]},
    "sweep": {"kind": "verify", "max": 7},
    "batch": {
        "kind": "batch",
        "lines": [
            '{"mode": "brieskorn", "exponents": [2, 3, 5]}',
            '{"mode": "perturb", "scenario": "circle", "eps": [0.1]}',
        ],
    },
}


def units(workload: str, req: dict) -> int:
    """Operations one request counts for: calls, sweep triples or batch lines."""
    if workload == "sweep":
        return len(oracle.coprime_triples(req["max"]))
    if workload == "batch":
        return sum(1 for line in req["lines"] if line.strip())
    return 1
