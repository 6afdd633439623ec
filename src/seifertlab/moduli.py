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
0 <= l < A*deg K, of the degree-1/A bundle G = N^(A*e(Y)).  One integer
walk over those A*deg K powers (``orbifold._walk``) must find the same
vectors, in the scan's order of degree, and gives each vector's label from
l.  Each vector's h^0(L^(-1) K^2) is that of G^(2*A*deg K - l), whose
degree comes in closed form from G's data, so the walk goes no further.
On the link orientation G = N^(-1), and the same walk's degrees give the
divisor route's geometric genus, which the report hands to the identity
chain instead of walking again.

Summing T^(2m) * P_T(CP^e) over the vectors gives the excess of the SL(2,C)
Poincare polynomial over the SU(2) one; the hat-normalized variant shifts
each CP^e summand by T^(-2e) instead.  The SU(2) summand itself is an opaque
optional input, but its Euler characteristic is always -2 * casson.

Each CP^e component is carried as one record, a flat tuple of ints in the
order of its JSON keys: (ambient_dim_c, e, k, l0_power, morse_index,
beta_1, ..., beta_n), whose tail is the vector's residues.  The writers
(``cli._dump``, ``cli._dump_line``, ``reports.report_table``) print each
record from one template, and print the SU(2) piece, which comes first in
every report, themselves.

The identity chain reads only the excess Euler characteristic, the sum of
e + 1 over the vectors.  One scan over the residues of the first n - 1
fibers (``orbifold._prefixes``) feeds two last-fiber loops: the enumeration
here builds every vector, and the count (``singularity._excess_euler``)
stops at the residues and sums each leaf's range of e in closed form.  Both
check the integrality of m once per leaf, through ``orbifold._exponent``.
The count sits beside the identity chain so that a sweep, which reads only
the count, never loads this module or ``exact``.
Reports, which print every vector, still enumerate them.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import repeat
from operator import add, floordiv, mul

from .errors import ConsistencyError
from .exact import LaurentPoly, cp_poincare, euler_eval, hat_normalize
from .orbifold import Orbifold, _exponent, _h0_sum, _prefixes, _walk, power
from .seifert import SeifertData, n_bundle, require_homology_sphere

__all__ = [
    "EVector",
    "ModuliReport",
    "enumerate_e_vectors",
    "exponent_closed_form",
    "excess_poincare",
    "moduli_report",
]


class EVector(namedtuple("EVector", "e betas exponent", defaults=(None,))):
    """Lattice vector (e; beta_1..beta_n) of degree e + sum beta_i/alpha_i.

    ``exponent`` is the Morse-Bott half-index m, which
    :func:`enumerate_e_vectors` computes in the same pass as the vector; it
    is None on a vector built by hand.
    """

    __slots__ = ()


def enumerate_e_vectors(C: Orbifold) -> list[EVector]:
    """All vectors (e; beta) with e >= 0, 0 <= beta_i < alpha_i, deg < -chi(C).

    The bound -chi(C) makes the set finite (possibly empty).  The scan runs
    in integers scaled by A = prod alpha_i, pruning each residue slot as soon
    as the partial degree hits the bound, and carries each vector's
    half-index in the same pass (see :func:`exponent_closed_form`).  A leaf
    of the last fiber with scaled partial degree acc stands for the vectors
    e = 0, 1, ..., t - 1 with e*A + acc below the bound, whose m falls by 1
    per unit of e, so the integrality check of the least m, at e = t - 1,
    covers the leaf.  Output is sorted by degree, then lexicographically by
    (e, beta_1, ..., beta_n).
    """
    A, limit = C.scale, C.scaled_deg_k
    a, step = C.alphas[-1], C.cofactors[-1]
    # rows of (deg*A, e, betas, m); sorting them sorts by (degree, e, betas)
    rows: list[tuple[int, int, tuple[int, ...], int]] = []
    append = rows.append
    for acc, frac, betas in _prefixes(C):
        for beta in range(a):
            nxt = acc + beta * step
            if nxt >= limit:
                break
            leaf = betas + (beta,)
            m, rem = divmod(limit - nxt - A + frac + (beta + 1) % a * step, A)
            e = 0
            while nxt < limit:
                append((nxt, e, leaf, m))
                nxt += A
                m -= 1
                e += 1
            if rem or m < -1:  # the least m, at e - 1, is m + 1
                _exponent((m + 1) * A + rem, A, (e - 1,) + leaf)
    rows.sort()
    return [EVector(e, betas, m) for _, e, betas, m in rows]


def _check_enumerated(C: Orbifold, v: EVector) -> None:
    """Validate v as a vector of C."""
    vector = (v.e,) + v.betas
    if v.e < 0 or len(v.betas) != C.n:
        raise ValueError(f"vector {vector} malformed for this orbifold")
    if any(not 0 <= b < a for b, a in zip(v.betas, C.alphas)):
        raise ValueError(f"vector {vector} has residues out of range")
    if v.e * C.scale + sum(b * c for b, c in zip(v.betas, C.cofactors)) >= C.scaled_deg_k:
        raise ValueError(f"vector {vector} violates the degree bound")


def exponent_closed_form(C: Orbifold, v: EVector) -> int:
    """Morse-Bott half-index from the closed formula, in integers scaled by A.

    Computes m = -chi(C) - deg(v) - 1 + sum_i {(beta_i + 1)/alpha_i} as
    m*A = -chi(C)*A - deg(v)*A - A + sum_i ((beta_i + 1) mod alpha_i) * A/alpha_i,
    the formula :func:`enumerate_e_vectors` evaluates in its scan, and checks
    that m is a non-negative integer; failure of integrality would mean
    corrupted input or a bug, never a property of valid data.
    """
    _check_enumerated(C, v)
    A, cofactors, limit = C.scale, C.cofactors, C.scaled_deg_k
    deg_scaled = v.e * A + sum(b * c for b, c in zip(v.betas, cofactors))
    frac_scaled = sum((b + 1) % a * c for b, a, c in zip(v.betas, C.alphas, cofactors))
    return _exponent(limit - deg_scaled - A + frac_scaled, A, (v.e,) + v.betas)


def _vectors(S: SeifertData) -> list[EVector]:
    """The request's one enumeration: lattice vectors of a homology sphere's base."""
    require_homology_sphere(S)
    return enumerate_e_vectors(S.orbifold)


def _components(S: SeifertData, vectors: list[EVector]) -> tuple[list[tuple], list[int]]:
    """The scanned vectors checked against, and labelled by, one walk over G^l.

    G = N^(A*e(Y)) has degree 1/A, so every bundle of degree d is G^(A*d):
    the vectors are the effective G^l with 0 <= l < A*deg K, one walk of
    A*deg K powers, in the order of l, which is the scan's order of degree,
    and K = G^(A*deg K).  Each vector's h^0(L^(-1) K^2) is
    that of G^j, j = 2*A*deg K - l, whose desingularised degree
    j*e_G + sum_i floor(j*beta_i/alpha_i) comes in closed form from G's data
    (e_G; beta_i): it is ``normalize(power(G, j))`` without building the
    bundle.  The label expresses L = N^(A*e(Y)*l) as L0^(-2) N^k K with
    L0 = N^l0_power: with K = N^(A*e(Y)*A*deg K), the exponents of N give
    k = (A*deg K - l) mod 2 and l0_power = (k + A*e(Y)*(A*deg K - l)) // 2,
    in integers.

    The ambient dimension 2*(h^0(L) + h^0(L^(-1) K^2) - 1) is set to
    2*(e + m) without a further check: once the walk's vectors equal the scan's,
    h^0(L) = e + 1, and once its exponent equals the scan's, h^0(L^(-1) K^2)
    = m, so a re-derivation could not fail.

    Returns one record (ambient_dim_c, e, k, l0_power, morse_index,
    beta_1, ..., beta_n) per vector, in the scan's order, and the walk's
    degrees of G^l, l < A*deg K; on the link orientation G = N^(-1), and
    those degrees are the divisor route's to the geometric genus.
    """
    a_e = require_homology_sphere(S)
    top = S.orbifold.scaled_deg_k
    G = power(n_bundle(S), a_e)
    degrees, residues = _walk(G, top, keep=top)
    if [(degrees[l], betas) for l, betas in residues.items()] != [v[:2] for v in vectors]:
        raise ConsistencyError(
            f"walk and scan disagree: {len(residues)} effective powers of N, "
            f"{len(vectors)} vectors"
        )
    ls = list(residues)
    # e(G^j) = j*e_G + sum_i floor(j*beta_i/alpha_i), one fiber at a time
    js = [2 * top - l for l in ls]
    duals = [j * G.e for j in js]
    for a, b in zip(S.orbifold.alphas, G.betas):
        duals = list(map(add, duals, map(floordiv, map(mul, js, repeat(b)), repeat(a))))
    records = []
    append = records.append
    for (e, betas, m), l, d in zip(vectors, ls, duals):
        if m != max(0, d + 1):
            raise ConsistencyError(
                f"exponent routes disagree on {(e,) + betas}: "
                f"closed form {m}, bundle route {max(0, d + 1)}"
            )
        k = (top - l) % 2
        append((2 * (e + m), e, k, (k + a_e * (top - l)) // 2, 2 * m, *betas))
    return records, degrees


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


class ModuliReport(
    namedtuple(
        "ModuliReport",
        "z_components excess_poincare pg hp_excess pg_divisors",
        defaults=(None,),
    )
):
    """Assembled moduli-side quantities for one fibration.

    ``z_components`` holds one record per CP^e component.
    """

    __slots__ = ()


def moduli_report(S: SeifertData) -> ModuliReport:
    """Bundle the CP^e components, the two excess polynomials and p_g.

    Everything comes from one enumeration of the lattice vectors and one
    walk over the powers of N.  ``pg`` is the excess Euler characteristic,
    from the scan.  On a link-oriented fibration ``pg_divisors`` is the
    divisor route's p_g, the sum of h^0 over the walk's powers of N^(-1)
    (see ``singularity.geometric_genus_divisors``); it is None on the
    reversed orientation.  With a Casson invariant lambda, chi of the
    character variety is -2*lambda + pg; ``reports.seifert_report`` forms it
    once, whatever the source of lambda.
    """
    vectors = _vectors(S)
    components, degrees = _components(S, vectors)
    excess = _excess(vectors)
    return ModuliReport(
        z_components=components,
        excess_poincare=excess,
        pg=euler_eval(excess),
        hp_excess=_hp_excess(vectors),
        pg_divisors=_h0_sum(degrees) if S.a_times_e < 0 else None,
    )
