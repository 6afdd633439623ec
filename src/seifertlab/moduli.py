"""Critical-locus combinatorics for the stable SL(2,C) character variety.

For a Seifert-fibered integral homology sphere Y over C = S^2(alpha_1..n),
the non-minimal part of the critical locus is a disjoint union of complex
projective spaces CP^e, one for each lattice vector (e; beta_1..beta_n) of
non-negative integers with beta_i < alpha_i and orbifold degree < -chi(C).
Each such component carries:

  * a Morse-Bott index 2*m, where m = h^0(L^(-1) K^2) for the divisor bundle
    L determined by the vector; equivalently (and computed independently)

        m = -chi(C) - deg(e;beta) - 1 + sum_i {(beta_i + 1)/alpha_i}

    with {x} the fractional part, an exact non-negative integer.  Scaled
    by A = prod alpha_i this is an integer identity, which the enumeration
    evaluates for every vector in the same pass that finds it;
  * an ambient component of complex dimension 2*(e + m);
  * a label (l0_power, k) with k in {0,1} expressing the divisor bundle as
    L0^(-2) N^k K for L0 = N^l0_power.

Two routes find the vectors.  The scan (:func:`enumerate_e_vectors`) runs
over residues and carries the closed-form m.  On a homology sphere every
bundle is a power of N, so the vectors are also the effective powers G^l,
0 <= l < A*deg K, of the degree-1/A bundle G = N^(A*e(Y)); one integer walk
over those powers (``orbifold._walk``, shared with the divisor route of
the geometric genus) must find the same set, gives each vector's
h^0(L^(-1) K^2) and, from l, its label.

Summing T^(2m) * P_T(CP^e) over the vectors gives the excess of the SL(2,C)
Poincare polynomial over the SU(2) one; the hat-normalized variant shifts
each CP^e summand by T^(-2e) instead.  The SU(2) summand itself is an opaque
optional input, but its Euler characteristic is always -2 * casson.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError
from .exact import LaurentPoly, cp_poincare, euler_eval, hat_normalize
from .orbifold import (
    LineBundleData,
    Orbifold,
    _walk,
    canonical_bundle,
    dual,
    h0,
    normalize,
    power,
    tensor,
)
from .seifert import SeifertData, bundle_log, n_bundle, require_homology_sphere

__all__ = [
    "EVector",
    "ZComponent",
    "ModuliReport",
    "AssembledPoly",
    "enumerate_e_vectors",
    "exponent_closed_form",
    "exponent_via_bundles",
    "solve_L0_k",
    "z_decomposition",
    "excess_poincare",
    "sl2c_euler",
    "sl2c_poincare",
    "hp_poincare",
    "moduli_report",
]


@dataclass(frozen=True)
class EVector:
    """Lattice vector (e; beta_1..beta_n) with its exact orbifold degree.

    ``exponent`` is the Morse-Bott half-index m, which
    :func:`enumerate_e_vectors` computes in the same pass as the vector; it
    is None on a vector built by hand.
    """

    e: int
    betas: tuple[int, ...]
    degree: Fraction
    exponent: int | None = None

    def as_tuple(self) -> tuple[int, ...]:
        return (self.e,) + self.betas


@dataclass(frozen=True)
class ZComponent:
    """One connected piece of the critical locus.

    Either the SU(2) locus (kind "su2", index 0) or a CP^e divisor component
    (kind "cpe") carrying its Morse-Bott index, the complex dimension of the
    ambient moduli component, the divisor bundle, and the (l0_power, k) label.
    """

    kind: str
    vector: EVector | None = None
    morse_index: int = 0
    ambient_dim_c: int | None = None
    divisor_bundle: LineBundleData | None = None
    l0_power: int | None = None
    parity_k: int | None = None

    def as_dict(self) -> dict:
        if self.kind == "su2":
            return {"kind": "su2"}
        return {
            "kind": "cpe",
            "e": self.vector.e,
            "vector": list(self.vector.betas),
            "morse_index": self.morse_index,
            "ambient_dim_c": self.ambient_dim_c,
            "l0_power": self.l0_power,
            "k": self.parity_k,
        }


def _scale(C: Orbifold) -> tuple[int, list[int], int]:
    """(A, [A/alpha_i], -chi(C)*A) with A = prod alpha_i: degrees times A are integers."""
    A = math.prod(C.alphas)
    cofactors = [A // a for a in C.alphas]
    return A, cofactors, (C.n - 2) * A - sum(cofactors)


def _exponent(scaled: int, A: int, vector: tuple[int, ...]) -> int:
    """m from m*A, which must be a non-negative multiple of A."""
    m, rem = divmod(scaled, A)
    if rem or m < 0:
        raise ConsistencyError(
            f"exponent {Fraction(scaled, A)} for vector {vector} is not a non-negative integer"
        )
    return m


def enumerate_e_vectors(C: Orbifold) -> list[EVector]:
    """All vectors (e; beta) with e >= 0, 0 <= beta_i < alpha_i, deg < -chi(C).

    The bound -chi(C) makes the set finite (possibly empty).  The scan runs
    in integers scaled by A = prod alpha_i, pruning each residue slot as soon
    as the partial degree hits the bound, and carries each vector's
    half-index in the same pass (see :func:`exponent_closed_form`).  Output
    is sorted by degree, then lexicographically by (e, beta_1, ..., beta_n).
    """
    alphas = C.alphas
    A, cofactors, limit = _scale(C)
    if limit <= 0:
        return []
    # rows of (deg*A, (e, beta...), m*A); sorting them sorts by (degree, as_tuple())
    rows: list[tuple[int, tuple[int, ...], int]] = []

    def scan(i: int, acc: int, frac: int, vector: tuple[int, ...]):
        if i == C.n:
            rows.append((acc, vector, limit - acc - A + frac))
            return
        a, step = alphas[i], cofactors[i]
        for beta in range(a):
            nxt = acc + beta * step
            if nxt >= limit:
                break
            # {(beta + 1)/a} * A = ((beta + 1) mod a) * A/a
            scan(i + 1, nxt, frac + (beta + 1) % a * step, vector + (beta,))

    e = 0
    while e * A < limit:
        scan(0, e * A, 0, (e,))
        e += 1
    rows.sort()
    return [
        EVector(
            e=vector[0],
            betas=vector[1:],
            degree=Fraction(acc, A),
            exponent=_exponent(scaled, A, vector),
        )
        for acc, vector, scaled in rows
    ]


def _check_enumerated(C: Orbifold, v: EVector, scale: tuple[int, list[int], int]) -> None:
    """Validate v as a vector of C, whose :func:`_scale` is scale."""
    if v.e < 0 or len(v.betas) != C.n:
        raise ValueError(f"vector {v.as_tuple()} malformed for this orbifold")
    if any(not 0 <= b < a for b, a in zip(v.betas, C.alphas)):
        raise ValueError(f"vector {v.as_tuple()} has residues out of range")
    A, cofactors, limit = scale
    if v.e * A + sum(b * c for b, c in zip(v.betas, cofactors)) >= limit:
        raise ValueError(f"vector {v.as_tuple()} violates the degree bound")


def exponent_closed_form(C: Orbifold, v: EVector) -> int:
    """Morse-Bott half-index from the closed formula, in integers scaled by A.

    Computes m = -chi(C) - deg(v) - 1 + sum_i {(beta_i + 1)/alpha_i} as
    m*A = -chi(C)*A - deg(v)*A - A + sum_i ((beta_i + 1) mod alpha_i) * A/alpha_i,
    the formula :func:`enumerate_e_vectors` evaluates in its scan, and checks
    that m is a non-negative integer; failure of integrality would mean
    corrupted input or a bug, never a property of valid data.
    """
    scale = _scale(C)
    _check_enumerated(C, v, scale)
    A, cofactors, limit = scale
    deg_scaled = v.e * A + sum(b * c for b, c in zip(v.betas, cofactors))
    frac_scaled = sum((b + 1) % a * c for b, a, c in zip(v.betas, C.alphas, cofactors))
    return _exponent(limit - deg_scaled - A + frac_scaled, A, v.as_tuple())


def exponent_via_bundles(C: Orbifold, v: EVector) -> int:
    """Morse-Bott half-index as the section count h^0(L^(-1) K^2).

    Pure bundle arithmetic on the divisor bundle L of the vector; independent
    of :func:`exponent_closed_form`, which it must equal.
    """
    _check_enumerated(C, v, _scale(C))
    K = canonical_bundle(C)
    return h0(tensor(dual(normalize(v.e, v.betas, C)), tensor(K, K)))


def solve_L0_k(L: LineBundleData, S: SeifertData) -> tuple[int, int]:
    """Express a divisor bundle as L0^(-2) N^k K with L0 = N^m0 and k in {0,1}.

    With m_L = bundle_log(L) and m_K = bundle_log(K) the parity equation
    -2*m0 + k + m_K = m_L forces k = (m_L - m_K) mod 2 and
    m0 = (k + m_K - m_L) // 2.  The postcondition is re-checked on bundle data.
    """
    m_L = bundle_log(L, S)  # rejects a foreign bundle or a non-homology sphere
    K = canonical_bundle(S.orbifold)
    m_K = bundle_log(K, S)
    k = (m_L - m_K) % 2
    m0 = (k + m_K - m_L) // 2
    N = n_bundle(S)
    if tensor(tensor(power(power(N, m0), -2), power(N, k)), K) != L:
        raise ConsistencyError(f"(l0_power={m0}, k={k}) fails to rebuild bundle {L.as_dict()}")
    return m0, k


def _vectors(S: SeifertData) -> list[EVector]:
    """The request's one enumeration: lattice vectors of a homology sphere's base."""
    require_homology_sphere(S)
    return enumerate_e_vectors(S.orbifold)


def z_decomposition(S: SeifertData) -> list[ZComponent]:
    """The critical locus: one SU(2) piece plus one CP^e piece per vector.

    The scan finds the vectors and their closed-form exponents; the walk over
    the powers of N must find the same vectors and the same exponents (see
    :func:`_components`).  Every CP^e piece also carries the ambient complex
    dimension 2*(e + m), re-derived as
    2*(h^0(L0^(-2) N^k K) + h^0(L0^2 N^(-k) K) - 1).  That check follows
    from the first two: L0^(-2) N^k K = L and L0^2 N^(-k) K = K^2 L^(-1), so
    its h^0 values are e + 1 and the walk's exponent.
    """
    return _components(S, _vectors(S))


def _components(S: SeifertData, vectors: list[EVector]) -> list[ZComponent]:
    """The scanned vectors checked against, and labelled by, one walk over G^l.

    G = N^(A*e(Y)) has degree 1/A, so every bundle of degree d is G^(A*d):
    the vectors are the effective G^l with 0 <= l < A*deg K, K = G^(A*deg K)
    and L^(-1) K^2 = G^(2*A*deg K - l).  With L = N^(A*e(Y)*l) the label
    follows from the parity rule of :func:`solve_L0_k`, in integers.
    """
    C = S.orbifold
    a_e = require_homology_sphere(S)
    top = _scale(C)[2]  # A * deg K
    degrees, residues = _walk(power(n_bundle(S), a_e), 2 * top + 1, keep=top)
    powers = {(degrees[l], betas): l for l, betas in residues.items()}
    scanned = [(v.e, v.betas) for v in vectors]
    if len(scanned) != len(powers) or set(scanned) != powers.keys():
        raise ConsistencyError(
            f"walk and scan disagree: {len(powers)} effective powers of N, "
            f"{len(scanned)} vectors"
        )
    components = [ZComponent(kind="su2", morse_index=0)]
    for v, key in zip(vectors, scanned):
        l = powers[key]
        m = v.exponent
        m_walk = max(0, degrees[2 * top - l] + 1)
        if m != m_walk:
            raise ConsistencyError(
                f"exponent routes disagree on {v.as_tuple()}: "
                f"closed form {m}, bundle route {m_walk}"
            )
        ambient = 2 * (v.e + m)
        via_dims = 2 * (max(0, degrees[l] + 1) + m_walk - 1)
        if ambient != via_dims:
            raise ConsistencyError(
                f"ambient dimension mismatch on {v.as_tuple()}: {ambient} vs {via_dims}"
            )
        k = (top - l) % 2
        components.append(
            ZComponent(
                kind="cpe",
                vector=v,
                morse_index=2 * m,
                ambient_dim_c=ambient,
                divisor_bundle=normalize(v.e, v.betas, C),
                l0_power=(k + a_e * (top - l)) // 2,
                parity_k=k,
            )
        )
    return components


def _excess(vectors: list[EVector]) -> LaurentPoly:
    counts = Counter((v.e, v.exponent) for v in vectors)
    return sum(
        (c * cp_poincare(e).shift(2 * m) for (e, m), c in counts.items()),
        LaurentPoly.zero(),
    )


def _hp_excess(vectors: list[EVector]) -> LaurentPoly:
    counts = Counter(v.e for v in vectors)
    return sum(
        (c * hat_normalize(cp_poincare(e), 2 * e) for e, c in counts.items()),
        LaurentPoly.zero(),
    )


def excess_poincare(S: SeifertData) -> LaurentPoly:
    """Sum over vectors of T^(2m) * P_T(CP^e): the non-SU(2) Poincare summand."""
    return _excess(_vectors(S))


def sl2c_euler(S: SeifertData, casson: int) -> int:
    """chi of the stable SL(2,C) character variety: -2*casson + excess Euler."""
    return -2 * casson + euler_eval(excess_poincare(S))


@dataclass(frozen=True)
class AssembledPoly:
    """A polynomial that may still be missing its external SU(2) summand."""

    poly: LaurentPoly
    partial: bool

    @property
    def note(self) -> str | None:
        return "partial - SU(2) summand external" if self.partial else None


def sl2c_poincare(S: SeifertData, su2_poly: LaurentPoly | None = None) -> AssembledPoly:
    """SU(2) summand plus excess when the former is supplied; excess alone otherwise.

    The SU(2) Poincare polynomial is external input here (only its Euler
    characteristic is derivable, via the Casson invariant).
    """
    excess = excess_poincare(S)
    if su2_poly is None:
        return AssembledPoly(poly=excess, partial=True)
    return AssembledPoly(poly=su2_poly + excess, partial=False)


def hp_poincare(S: SeifertData, su2_hat_poly: LaurentPoly | None = None) -> AssembledPoly:
    """Hat-normalized assembly: each CP^e enters as T^(-2e) * P_T(CP^e).

    The shift by the real dimension 2e makes every summand evaluate to
    chi(CP^e) = e + 1 at T = 1, so the total at T = 1 equals the SL(2,C)
    Euler characteristic whenever the supplied SU(2) part does its share.
    """
    total = _hp_excess(_vectors(S))
    if su2_hat_poly is None:
        return AssembledPoly(poly=total, partial=True)
    return AssembledPoly(poly=su2_hat_poly + total, partial=False)


@dataclass(frozen=True)
class ModuliReport:
    """Assembled moduli-side quantities for one fibration."""

    z_components: tuple[ZComponent, ...]
    excess_poincare: LaurentPoly
    pg: int
    hp_excess: LaurentPoly
    euler_sl2c: int | None


def moduli_report(S: SeifertData, casson: int | None = None) -> ModuliReport:
    """Bundle the decomposition, polynomials, and (if casson is known) chi.

    Everything comes from one enumeration of the lattice vectors.
    """
    vectors = _vectors(S)
    excess = _excess(vectors)
    pg = euler_eval(excess)
    return ModuliReport(
        z_components=tuple(_components(S, vectors)),
        excess_poincare=excess,
        pg=pg,
        hp_excess=_hp_excess(vectors),
        euler_sl2c=None if casson is None else -2 * casson + pg,
    )
