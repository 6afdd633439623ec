"""Independent oracle for every number the benchmark checks.

Nothing here imports seifertlab.  Each quantity comes from its textbook
definition, in exact ``Fraction`` arithmetic where the program promises exact
values:

* mu = (p-1)(q-1)(r-1);
* p_g = #{i,j,k >= 1 : i/p + j/q + k/r <= 1};
* lambda by the Dedekind-sum formula of Fintushel-Stern / Neumann-Wahl;
* the lattice vectors (e; beta) by brute force over every candidate, each
  with its Morse index as h^0(L^-1 K^2) counted in the graded ring of the
  Brieskorn complete intersection, and its (l0_power, k) label from degrees
  alone (on a homology sphere the degree determines the bundle);
* the perturbation scenarios by solving the critical-point equations of
  S_eps directly and reading indices off the explicit Hessians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product


def pairwise_coprime(values) -> bool:
    return all(
        math.gcd(values[i], values[j]) == 1
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


def coprime_triples(max_exponent: int) -> list[tuple[int, int, int]]:
    """All pairwise-coprime 2 <= p < q < r <= max, in lexicographic order."""
    return [
        (p, q, r)
        for p in range(2, max_exponent + 1)
        for q in range(p + 1, max_exponent + 1)
        for r in range(q + 1, max_exponent + 1)
        if pairwise_coprime((p, q, r))
    ]


def frac_str(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------- singularity


def milnor(p: int, q: int, r: int) -> int:
    return (p - 1) * (q - 1) * (r - 1)


def geometric_genus(p: int, q: int, r: int) -> int:
    """#{i,j,k >= 1 : i/p + j/q + k/r <= 1}, counted over (i, j) in integers."""
    m = p * q * r
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            room = m - i * q * r - j * p * r
            if room < p * q:
                break
            total += room // (p * q)
    return total


def _sawtooth(x: Fraction) -> Fraction:
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    return sum(
        (_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        Fraction(0),
    )


def casson(p: int, q: int, r: int) -> int:
    """Casson invariant of Sigma(p,q,r), normalized so lambda(Sigma(2,3,5)) = -1."""
    a = p * q * r
    lam = (
        Fraction(-1, 8)
        + Fraction(1 - a * a + (p * q) ** 2 + (q * r) ** 2 + (p * r) ** 2, 24 * a)
        - Fraction(1, 2) * (dedekind_sum(q * r, p) + dedekind_sum(p * r, q) + dedekind_sum(p * q, r))
    )
    if lam.denominator != 1:
        raise ArithmeticError(f"Dedekind-sum Casson value {lam} is not an integer")
    return int(lam)


@dataclass(frozen=True)
class Chain:
    """The identity chain of one triple: -2*lambda + p_g = mu/4 = euler_sl2c."""

    milnor: int
    pg: int
    casson: int

    @property
    def signature(self) -> int:
        return 8 * self.casson

    @property
    def euler_sl2c(self) -> int:
        return -2 * self.casson + self.pg

    @property
    def holds(self) -> bool:
        return (
            self.milnor % 4 == 0
            and self.euler_sl2c == self.milnor // 4
            and self.signature == 4 * self.pg - self.milnor
        )


def chain(p: int, q: int, r: int) -> Chain:
    return Chain(milnor(p, q, r), geometric_genus(p, q, r), casson(p, q, r))


# ------------------------------------------------------------------- fibrations


def brieskorn_fibers(alphas) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(b, fibers) of Sigma(alphas) with A*e = -1, by search over each gamma."""
    A = math.prod(alphas)
    gammas = []
    for a in alphas:
        c = A // a
        gammas.append(next(g for g in range(1, a) if (g * c + 1) % a == 0))
    b = Fraction(-1, A) - sum(Fraction(g, a) for g, a in zip(gammas, alphas))
    if b.denominator != 1:
        raise ArithmeticError(f"no integral b for {alphas}")
    return int(b), tuple(zip(alphas, gammas))


def reversed_fibers(b: int, fibers) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The same manifold with the opposite orientation: e(Y) -> -e(Y)."""
    return -b - len(fibers), tuple((a, a - g) for a, g in fibers)


def euler_number(b: int, fibers) -> Fraction:
    return b + sum(Fraction(g, a) for a, g in fibers)


@dataclass(frozen=True)
class Vector:
    e: int
    betas: tuple[int, ...]
    degree: Fraction


def lattice_vectors(alphas) -> list[Vector]:
    """Every (e; beta) with e >= 0, 0 <= beta_i < alpha_i, deg < -chi, by brute force."""
    bound = -orbifold_chi(alphas)
    parts = [[Fraction(b, a) for b in range(a)] for a in alphas]
    out = []
    e = 0
    while e < bound:
        for betas in product(*(range(a) for a in alphas)):
            deg = e + sum(part[b] for part, b in zip(parts, betas))
            if deg < bound:
                out.append(Vector(e, betas, deg))
        e += 1
    out.sort(key=lambda v: (v.degree, (v.e,) + v.betas))
    return out


def orbifold_chi(alphas) -> Fraction:
    return 2 - len(alphas) + sum(Fraction(1, a) for a in alphas)


def section_counts(alphas, top: int) -> list[int]:
    """h^0 of the orbifold line bundle of degree n/A on S^2(alphas), n = 0..top.

    For pairwise-coprime alphas the degree determines the bundle, and by
    Dolgachev-Pinkham its sections of degree n/A are the degree-n piece of the
    graded ring of the Brieskorn complete intersection: variables of weight
    A/alpha_i and len(alphas) - 2 relations of weight A.  The counts are the
    coefficients of its Hilbert series prod(1 - t^A)^(n-2) / prod(1 - t^(A/alpha_i)),
    found by counting monomials and removing the relations' multiples.
    """
    A = math.prod(alphas)
    counts = [1] + [0] * top
    for a in alphas:
        w = A // a
        for n in range(w, top + 1):
            counts[n] += counts[n - w]
    for _ in range(len(alphas) - 2):
        for n in range(top, A - 1, -1):
            counts[n] -= counts[n - A]
    return counts


def half_index(alphas, v: Vector, counts: list[int]) -> int:
    """h^0(L^-1 K^2) for the bundle L of degree deg(v), read off ``section_counts``."""
    n = math.prod(alphas) * (-2 * orbifold_chi(alphas) - v.degree)
    if n.denominator != 1 or not 0 <= n < len(counts):
        raise ArithmeticError(f"degree {n} of L^-1 K^2 for {v} is out of range")
    return counts[int(n)]


def render_poly(coeffs: dict[int, int]) -> str:
    """The program's canonical rendering of an integer Laurent polynomial."""
    terms = sorted((k, c) for k, c in coeffs.items() if c)
    if not terms:
        return "0"
    parts = []
    for exp, c in terms:
        if exp == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"T^{exp}")
        elif c == -1:
            parts.append(f"-T^{exp}")
        else:
            parts.append(f"{c}*T^{exp}")
    return " + ".join(parts)


def fibration(b: int, fibers, casson_override: int | None = None) -> dict:
    """Expected values of one fibration report, keyed like the program's JSON."""
    fibers = tuple((int(a), int(g)) for a, g in fibers)
    alphas = tuple(a for a, _ in fibers)
    A = math.prod(alphas)
    deg_n = euler_number(b, fibers)
    chi = orbifold_chi(alphas)
    deg_k = -chi
    components = []
    excess: dict[int, int] = {}
    hp: dict[int, int] = {}
    pg = 0
    counts = section_counts(alphas, int(2 * A * deg_k))
    for v in lattice_vectors(alphas):
        m = half_index(alphas, v, counts)
        m_l = v.degree / deg_n
        m_k = deg_k / deg_n
        if m_l.denominator != 1 or m_k.denominator != 1:
            raise ArithmeticError("degree is not a multiple of deg N")
        k = int(m_l - m_k) % 2
        components.append(
            {
                "kind": "cpe",
                "e": v.e,
                "vector": list(v.betas),
                "morse_index": 2 * m,
                "ambient_dim_c": 2 * (v.e + m),
                "l0_power": int(k + m_k - m_l) // 2,
                "k": k,
            }
        )
        for j in range(v.e + 1):
            excess[2 * m + 2 * j] = excess.get(2 * m + 2 * j, 0) + 1
            hp[2 * j - 2 * v.e] = hp.get(2 * j - 2 * v.e, 0) + 1
        pg += v.e + 1

    link = deg_n < 0
    triple = None
    if link and len(fibers) == 3 and brieskorn_fibers(tuple(sorted(alphas))) == (
        b,
        tuple(sorted(fibers)),
    ):
        triple = chain(*sorted(alphas))
    lam = casson_override if casson_override is not None else (triple.casson if triple else None)
    invariants = {
        "pg": pg,
        "milnor": triple.milnor if triple else None,
        "signature": triple.signature if triple else None,
        "b_plus": 2 * triple.pg if triple else None,
        "casson": lam,
        "euler_sl2c": None if lam is None else -2 * lam + pg,
    }
    return {
        "seifert": {"b": b, "fibers": [list(f) for f in fibers]},
        "orbifold": {
            "alphas": list(alphas),
            "euler_char": frac_str(chi),
            "canonical_degree": frac_str(deg_k),
            "n_bundle": {"e": b, "betas": [g for _, g in fibers]},
            "n_degree": frac_str(deg_n),
        },
        "homology_sphere": {"ok": True, "a_times_e": int(A * deg_n)},
        "z_components": [{"kind": "su2"}] + components,
        "invariants": invariants,
        "singularity": None
        if triple is None
        else {
            "milnor": triple.milnor,
            "pg": triple.pg,
            "signature": triple.signature,
            "casson": triple.casson,
            "euler_sl2c": triple.euler_sl2c,
        },
        "polynomials": {
            "excess": render_poly(excess),
            "hp_excess": render_poly(hp),
            "sl2c": None,
            "sl2c_partial": True,
        },
        # pg equals the lattice-point count of the singularity on every triple link
        "chain_holds": triple.holds and triple.pg == pg if triple else True,
        "link": link,
        "triple": triple is not None,
    }


def vector_count(alphas) -> int:
    """Number of lattice vectors, counted in integers (used to size workloads)."""
    A = math.prod(alphas)
    cof = [A // a for a in alphas]
    limit = (len(alphas) - 2) * A - sum(cof)
    if limit <= 0:
        return 0
    last_a, last_c = alphas[-1], cof[-1]
    count = 0
    for e in range(0, (limit - 1) // A + 1):
        for head in product(*(range(a) for a in alphas[:-1])):
            acc = e * A + sum(b * c for b, c in zip(head, cof))
            if acc < limit:
                count += min(last_a, (limit - acc - 1) // last_c + 1)
    return count


# -------------------------------------------------------------- perturbations

# chi of the Z0 component each scenario localises on, from topology: the circle
# S^1 and the sphere S^2; the w-axis R has chi = 1 and compact-support chi -1.
Z0_CHI = {"circle": (0, 0), "sphere": (2, 2), "linear": (1, -1)}


def _cubic_root(eps: float, start: float) -> float:
    """Root of 4t(t^2 - 1) + eps = 0 near t = start = +-1, by Newton."""
    t = start
    for _ in range(100):
        f = 4 * t * (t * t - 1) + eps
        step = f / (12 * t * t - 4)
        t -= step
        if abs(step) < 1e-17:
            break
    return t


def _negatives_sylvester(h) -> int:
    """Negative-eigenvalue count of a symmetric 3x3 Fraction matrix with nonzero minors."""
    d1 = h[0][0]
    d2 = h[0][0] * h[1][1] - h[0][1] * h[1][0]
    d3 = (
        h[0][0] * (h[1][1] * h[2][2] - h[1][2] * h[2][1])
        - h[0][1] * (h[1][0] * h[2][2] - h[1][2] * h[2][0])
        + h[0][2] * (h[1][0] * h[2][1] - h[1][1] * h[2][0])
    )
    if 0 in (d1, d2, d3):
        raise ArithmeticError("degenerate leading minor")
    # sign changes in the sequence 1, d1, d2, d3 count the negative eigenvalues
    signs = [1] + [1 if d > 0 else -1 for d in (d1, d2, d3)]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@dataclass(frozen=True)
class CriticalPoint:
    point: tuple[float, float, float]
    value: float
    index: int


def critical_points(scenario: str, eps_text: str) -> list[CriticalPoint]:
    """Critical points of S_eps inside the localisation basins, in site order."""
    eps = float(eps_text)
    out = []
    if scenario in ("circle", "sphere"):
        for start in (1.0, -1.0):
            t = _cubic_root(eps, start)
            radial = 4 * (t * t - 1)
            along = 12 * t * t - 4
            if scenario == "circle":
                point = (t, 0.0, 0.0)
                evals = (along, radial, 2.0)
            else:
                point = (0.0, 0.0, t)
                evals = (radial, radial, along)
            value = (t * t - 1) ** 2 + eps * t
            out.append(CriticalPoint(point, value, sum(1 for x in evals if x < 0)))
        return out
    if scenario == "linear":
        e = Fraction(eps_text)
        w = Fraction(2, 5)
        u1 = -e * (1 + w) / 2
        u2 = -e * w / 4
        value = u1**2 + 2 * u2**2 + e * ((1 + w) * u1 + w * u2) + e**2 * w**2
        hess = [[Fraction(2), Fraction(0), e], [Fraction(0), Fraction(4), e], [e, e, 2 * e**2]]
        out.append(
            CriticalPoint((float(u1), float(u2), float(w)), float(value), _negatives_sylvester(hess))
        )
        return out
    raise ValueError(f"no oracle for scenario {scenario!r}")
