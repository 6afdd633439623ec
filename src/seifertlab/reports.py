"""Canonical report assembly shared by the CLI and batch ingestion.

Reports are plain dicts of JSON-safe values: rationals as "num/den" strings,
polynomials in their canonical text rendering, and every derived block
accompanied by its cross-checks.  Dumping with sorted keys makes identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .exact import LaurentPoly, euler_eval
from .moduli import moduli_report
from .orbifold import canonical_bundle, orbifold_euler_char
from .seifert import SeifertData, brieskorn_seifert_data, n_bundle, require_homology_sphere
from .singularity import (
    _check_lattice_limit,
    geometric_genus_divisors,
    geometric_genus_pd,
    verify_identity_chain,
)

__all__ = [
    "fraction_str",
    "parse_poly",
    "seifert_report",
    "brieskorn_report",
    "verify_sweep_report",
    "singularity_block",
    "report_table",
]


def fraction_str(q: Fraction | int) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


_TERM_RE = re.compile(
    r"^(?P<sign>[+-])?(?P<digits>\d+)?(?P<star>\*)?(?P<t>T(\^(?P<exp>[+-]?\d+))?)?$"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical rendering back into a polynomial.

    Accepts sums of ``c``, ``T^k``, ``c*T^k`` (whitespace optional,
    negative exponents as ``T^-k``), e.g. "1 + T^2" or "2" or "T^-2 + 1".
    """
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        m = _TERM_RE.match(term)
        if not m or (m.group("digits") is None and m.group("t") is None):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        if m.group("star") and (m.group("digits") is None or m.group("t") is None):
            raise ValueError(f"malformed term {term!r} in {text!r}")
        magnitude = int(m.group("digits")) if m.group("digits") is not None else 1
        coeff = -magnitude if m.group("sign") == "-" else magnitude
        if m.group("t") is None:
            exp = 0
        else:
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
        coeffs[exp] = coeffs.get(exp, 0) + coeff
    return LaurentPoly(coeffs)


def _as_brieskorn_triple(S: SeifertData) -> tuple[int, int, int] | None:
    """The sorted exponent triple when S is exactly a Brieskorn triple datum."""
    if len(S.fibers) != 3:
        return None
    alphas = tuple(sorted(S.alphas))
    try:
        reference = brieskorn_seifert_data(alphas)
    except ValueError:
        return None
    if reference.b == S.b and sorted(reference.fibers) == sorted(S.fibers):
        return alphas
    return None


def singularity_block(chain) -> dict:
    """The wire format for triple invariants: values plus named checks."""
    return {
        "milnor": chain.milnor,
        "pg": chain.pg_pd,
        "signature": chain.sigma_lattice,
        "casson": chain.casson,
        "euler_sl2c": chain.euler_sl2c,
        "checks": {
            "pg_routes": chain.pg_routes_ok,
            "sigma_routes": chain.sigma_routes_ok,
            "milnor_quarter": chain.milnor_quarter_ok,
        },
    }


def seifert_report(
    S: SeifertData,
    input_echo: dict,
    casson: int | None = None,
    su2_poly: LaurentPoly | None = None,
) -> dict:
    """Full report for one fibration; raises ValueError on invalid input."""
    a_times_e = require_homology_sphere(S)
    C = S.orbifold
    chi = orbifold_euler_char(C)
    triple = _as_brieskorn_triple(S)
    link_oriented = S.euler_number < 0
    if triple is not None:
        _check_lattice_limit(*triple)  # before the moduli side does any work

    mod = moduli_report(S, casson=casson)
    chain = None
    lam, euler_sl2c = casson, mod.euler_sl2c
    if triple is not None:
        chain = verify_identity_chain(*triple, excess_euler=mod.pg)
        if casson is None:
            lam, euler_sl2c = chain.casson, chain.euler_sl2c

    report: dict = {
        "input": input_echo,
        "seifert": S.as_dict(),
        "orbifold": {
            "alphas": list(C.alphas),
            "euler_char": fraction_str(chi),
            "canonical_degree": fraction_str(canonical_bundle(C).degree),
            "n_bundle": n_bundle(S).as_dict(),
            "n_degree": fraction_str(S.euler_number),
        },
        "homology_sphere": {"ok": True, "a_times_e": a_times_e},
        "z_components": [zc.as_dict() for zc in mod.z_components],
    }

    report["singularity"] = singularity_block(chain) if chain is not None else None

    checks: dict = {}
    invariants: dict = {
        "pg": mod.pg,
        "milnor": None,
        "signature": None,
        "b_plus": None,
        "casson": lam,
        "euler_sl2c": euler_sl2c,
    }
    notes: list[str] = []
    if link_oriented:
        if chain is not None:
            pg_pd, pg_div = chain.pg_pd, chain.pg_divisors
        else:
            pg_pd, pg_div = geometric_genus_pd(S), geometric_genus_divisors(S)
        checks["pg_routes"] = pg_pd == pg_div == mod.pg
    else:
        notes.append("reversed orientation (deg N > 0): singularity invariants unavailable")
    if chain is not None:
        invariants["milnor"] = chain.milnor
        invariants["signature"] = chain.sigma_lattice
        invariants["b_plus"] = 2 * chain.pg_pd
        checks["sigma_routes"] = chain.sigma_routes_ok
        checks["milnor_quarter"] = chain.milnor_quarter_ok
        if casson is not None:
            # a report must not state a Casson value its own chain contradicts
            checks["casson_override"] = casson == chain.casson
    elif len(S.fibers) >= 4:
        notes.append("milnor/signature unavailable (complete intersection)")
    if lam is None:
        notes.append("euler_sl2c omitted: no casson invariant supplied or derivable")
    else:
        checks["hp_euler"] = -2 * lam + euler_eval(mod.hp_excess) == euler_sl2c
        if su2_poly is not None:
            # the SU(2) summand's Euler characteristic is -2*lambda
            checks["su2_euler"] = euler_eval(su2_poly) == -2 * lam
    invariants["notes"] = notes
    report["invariants"] = invariants
    report["checks"] = checks

    report["polynomials"] = {
        "excess": str(mod.excess_poincare),
        "hp_excess": str(mod.hp_excess),
        "sl2c": None if su2_poly is None else str(su2_poly + mod.excess_poincare),
        "sl2c_partial": su2_poly is None,
    }
    return report


def brieskorn_report(
    exponents,
    casson: int | None = None,
    su2_poly: LaurentPoly | None = None,
) -> dict:
    S = brieskorn_seifert_data(tuple(exponents))
    echo: dict = {"mode": "brieskorn", "exponents": [int(a) for a in exponents]}
    if casson is not None:
        echo["casson"] = casson
    return seifert_report(S, echo, casson=casson, su2_poly=su2_poly)


def verify_sweep_report(max_exponent: int) -> dict:
    """Identity-chain sweep over all pairwise-coprime triples p < q < r <= max."""
    if max_exponent > 30:
        raise ValueError("sweep limit is 30 (desk scale)")
    rows = []
    all_ok = True
    for p in range(2, max_exponent + 1):
        for q in range(p + 1, max_exponent + 1):
            if gcd(p, q) != 1:
                continue
            for r in range(q + 1, max_exponent + 1):
                if gcd(p, r) != 1 or gcd(q, r) != 1:
                    continue
                chain = verify_identity_chain(p, q, r)
                rows.append(chain.as_dict())
                all_ok = all_ok and chain.ok
    return {
        "input": {"mode": "verify", "max": max_exponent},
        "triples": rows,
        "count": len(rows),
        "all_ok": all_ok,
    }


def _z_component_line(zc: dict) -> str:
    if zc["kind"] == "su2":
        return "SU(2) locus (index 0)"
    vec = ",".join(str(v) for v in zc["vector"])
    return (
        f"CP^{zc['e']} [vector ({zc['e']};{vec}), index {zc['morse_index']}, "
        f"ambient_dim_C {zc['ambient_dim_c']}, L0 = N^{zc['l0_power']}, k = {zc['k']}]"
    )


def report_table(report: dict) -> str:
    """Human-readable rendering of a fibration report."""
    lines = []
    seif = report["seifert"]
    fibers = " ".join(f"({a},{g})" for a, g in seif["fibers"])
    lines.append(f"seifert data     b = {seif['b']}, fibers = {fibers}")
    orb = report["orbifold"]
    lines.append(
        f"orbifold         S^2({','.join(str(a) for a in orb['alphas'])}), "
        f"chi = {orb['euler_char']}, deg K = {orb['canonical_degree']}"
    )
    hs = report["homology_sphere"]
    lines.append(f"homology sphere  A*e(Y) = {hs['a_times_e']}")
    inv = report["invariants"]
    for key in ("pg", "milnor", "signature", "b_plus", "casson", "euler_sl2c"):
        value = inv.get(key)
        if value is not None:
            lines.append(f"{key:<16} {value}")
    for note in inv.get("notes", []):
        lines.append(f"note             {note}")
    for zc in report["z_components"]:
        lines.append(f"z component      {_z_component_line(zc)}")
    poly = report["polynomials"]
    lines.append(f"excess poly      {poly['excess']}")
    lines.append(f"hp excess        {poly['hp_excess']}")
    if poly["sl2c"] is not None:
        lines.append(f"sl2c poly        {poly['sl2c']}")
    else:
        lines.append("sl2c poly        partial - SU(2) summand external")
    checks = report["checks"]
    if checks:
        rendered = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in sorted(checks.items()))
        lines.append(f"checks           {rendered}")
    return "\n".join(lines)
