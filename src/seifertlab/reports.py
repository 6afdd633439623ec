"""Canonical report assembly shared by the CLI and batch ingestion.

Reports are plain dicts of JSON-safe values: rationals as "num/den" strings,
polynomials in their canonical text rendering, and every derived block
accompanied by its cross-checks.  Dumping with sorted keys makes identical
inputs produce byte-identical output.  The one exception is a fibration
report's ``"z_components"``: it holds one integer record per CP^e component
(see ``moduli._components``), and the writers, ``cli._dump``,
``cli._dump_line`` and :func:`report_table`, print the SU(2) piece first and
each record from one template, with no dict per component.

:func:`seifert_report` and :func:`parse_poly` import the moduli side and
``LaurentPoly`` when they are called.
"""

from __future__ import annotations

from itertools import starmap
from typing import TYPE_CHECKING

from .orbifold import orbifold_euler_char
from .seifert import SeifertData, brieskorn_seifert_data, n_bundle, require_homology_sphere
from .singularity import _check_lattice_limit, _identity_chain, geometric_genus_pd

if TYPE_CHECKING:
    from fractions import Fraction

    from .exact import LaurentPoly

__all__ = [
    "fraction_str",
    "parse_poly",
    "seifert_report",
    "brieskorn_report",
    "singularity_block",
    "report_table",
]


def fraction_str(q: Fraction | int) -> str:
    return f"{q.numerator}/{q.denominator}"  # an int is q/1


def parse_poly(text: str) -> LaurentPoly:
    """Parse the canonical rendering back into a polynomial.

    Accepts sums of ``c``, ``T^k``, ``c*T^k`` (whitespace optional,
    negative exponents as ``T^-k``), e.g. "1 + T^2" or "2" or "T^-2 + 1".
    """
    import re  # re caches the compiled pattern

    from .exact import LaurentPoly

    term_re = re.compile(
        r"^(?P<sign>[+-])?(?P<digits>\d+)?(?P<star>\*)?(?P<t>T(\^(?P<exp>[+-]?\d+))?)?$"
    )
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int] = {}
    for term in s.split("+"):
        if not term:
            raise ValueError(f"malformed polynomial {text!r}")
        m = term_re.match(term)
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
    """Full report for one fibration; raises ValueError on invalid input.

    A*e(Y) = -1 fixes each gamma_i by gamma_i*A/alpha_i = -1 (mod alpha_i),
    and then b, so a link-oriented fibration with three fibers is the link
    Sigma(alpha_1, alpha_2, alpha_3), in any fiber order.
    """
    from .exact import euler_eval
    from .moduli import moduli_report

    a_times_e = require_homology_sphere(S)
    C = S.orbifold
    chi = orbifold_euler_char(C)
    link_oriented = a_times_e < 0
    triple = tuple(sorted(S.alphas)) if len(S.fibers) == 3 and link_oriented else None
    _check_lattice_limit(*S.alphas)  # before the moduli side does any work

    mod = moduli_report(S)
    chain = None
    if triple is not None:  # the chain reuses the moduli side's scan and walk
        chain = _identity_chain(*triple, S, mod.pg, mod.pg_divisors)
    lam = casson if casson is not None or chain is None else chain.casson
    euler_sl2c = None if lam is None else -2 * lam + mod.pg

    report: dict = {
        "input": input_echo,
        "seifert": S.as_dict(),
        "orbifold": {
            "alphas": list(C.alphas),
            "euler_char": fraction_str(chi),
            "canonical_degree": fraction_str(-chi),  # deg K = -chi(C)
            "n_bundle": n_bundle(S).as_dict(),
            "n_degree": fraction_str(S.euler_number),
        },
        "homology_sphere": {"ok": True, "a_times_e": a_times_e},
        "z_components": mod.z_components,
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
        pg_pd = chain.pg_pd if chain is not None else geometric_genus_pd(S)
        checks["pg_routes"] = pg_pd == mod.pg_divisors == mod.pg
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
    lines.append("z component      SU(2) locus (index 0)")
    records = report["z_components"]
    if records:  # str.format, since the row reorders the record's fields
        vector = ",".join(f"{{{i}}}" for i in range(5, len(records[0])))
        row = (
            "z component      CP^{1} [vector ({1};" + vector + "), index {4}, "
            "ambient_dim_C {0}, L0 = N^{3}, k = {2}]"
        )
        lines += starmap(row.format, records)
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
