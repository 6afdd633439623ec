"""Orbifold line bundles on a genus-zero 2-orbifold S^2(alpha_1, ..., alpha_n).

A line bundle is classified by data (e; beta_1, ..., beta_n) where e is the
degree of the desingularised bundle on the underlying S^2 and beta_i is the
isotropy residue at the i-th cone point.  The canonical representative has
every residue normalized into 0 <= beta_i < alpha_i; reducing a residue mod
alpha_i carries the quotient into e, which preserves the orbifold degree

    deg = e + sum_i beta_i / alpha_i.

The underlying surface is S^2 throughout: every bundle then carries a unique
holomorphic structure, h^1 of any effective bundle vanishes, and the section
count is h^0 = max(0, e + 1) in terms of the normalized data.

Two integer scans over these bundles live here, because both the moduli
side and the identity chain read them: ``_walk`` runs over the powers of
one bundle, and ``_prefixes`` over the residues of the lattice vectors that
label the critical locus (see ``moduli``).  Neither builds a Fraction; a
``Fraction`` is imported only where one is returned or named in an error.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate, compress, cycle, islice
from operator import add
from typing import TYPE_CHECKING, Sequence

from .errors import ConsistencyError

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Orbifold",
    "LineBundleData",
    "orbifold_euler_char",
    "normalize",
    "tensor",
    "power",
    "h0",
]


class Orbifold(namedtuple("Orbifold", "alphas scale cofactors scaled_deg_k")):
    """Genus-zero 2-orbifold with cone points of orders alphas (each >= 2).

    Every orbifold degree lies in (1/A)Z with A = prod alpha_i, so degrees
    are handled as integers scaled by A.  The orbifold carries that scale:
    ``scale`` is A, ``cofactors`` are the A/alpha_i and ``scaled_deg_k`` is
    A*deg K = -chi(C)*A = (n - 2)*A - sum_i A/alpha_i.  The constructor takes
    the alphas alone and computes the other three fields, which the repr
    shows too; two orbifolds are equal, and hash equal, exactly when their
    alphas are.
    """

    __slots__ = ()

    def __new__(cls, alphas: Sequence[int]):
        alphas = tuple(alphas)
        if len(alphas) < 1:
            raise ValueError("an orbifold needs at least one cone point here")
        for a in alphas:
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"isotropy orders must be integers >= 2, got {a!r}")
        A = math.prod(alphas)
        cofactors = tuple(A // a for a in alphas)
        return tuple.__new__(cls, (alphas, A, cofactors, (len(alphas) - 2) * A - sum(cofactors)))

    def __getnewargs__(self):
        # copy and pickle rebuild the record through the constructor's checks
        return (self.alphas,)

    @property
    def n(self) -> int:
        return len(self.alphas)


class LineBundleData(namedtuple("LineBundleData", "e betas orbifold")):
    """Normalized classification data (e; beta_1, ..., beta_n) of a line bundle.

    The constructor insists on normalized residues; use :func:`normalize` to
    canonicalize raw data.  Values are immutable and safe to share.
    Equality and hashing include the orbifold, so bundles with the same data
    on different orbifolds differ.
    """

    __slots__ = ()

    def __new__(cls, e: int, betas: Sequence[int], orbifold: Orbifold):
        betas = tuple(betas)
        if len(betas) != orbifold.n:
            raise ValueError("one residue per cone point required")
        for b, a in zip(betas, orbifold.alphas):
            if not isinstance(b, int) or isinstance(b, bool) or not 0 <= b < a:
                raise ValueError(f"residue {b!r} not normalized for isotropy order {a}")
        if not isinstance(e, int) or isinstance(e, bool):
            raise ValueError(f"degree e must be an integer, got {e!r}")
        return tuple.__new__(cls, (e, betas, orbifold))

    def as_dict(self) -> dict:
        return {"e": self.e, "betas": list(self.betas)}


def orbifold_euler_char(C: Orbifold) -> Fraction:
    """Orbifold Euler characteristic chi(C) = 2 - n + sum 1/alpha_i."""
    from fractions import Fraction

    return 2 - C.n + sum((Fraction(1, a) for a in C.alphas), Fraction(0))


def normalize(e: int, raw_betas: Sequence[int], C: Orbifold) -> LineBundleData:
    """Reduce raw residues mod alpha_i into [0, alpha_i), carrying into e.

    The orbifold degree is preserved: each unit carried out of a residue slot
    adds exactly 1 to e.
    """
    if len(raw_betas) != C.n:
        raise ValueError("one raw residue per cone point required")
    carried = e
    betas = []
    for raw, a in zip(raw_betas, C.alphas):
        q, r = divmod(raw, a)
        carried += q
        betas.append(r)
    return LineBundleData(carried, tuple(betas), C)


def tensor(L1: LineBundleData, L2: LineBundleData) -> LineBundleData:
    """Tensor product; degrees add."""
    if L1.orbifold != L2.orbifold:
        raise ValueError("cannot tensor bundles over different orbifolds")
    return normalize(
        L1.e + L2.e,
        [b1 + b2 for b1, b2 in zip(L1.betas, L2.betas)],
        L1.orbifold,
    )


def power(L: LineBundleData, m: int) -> LineBundleData:
    """m-fold tensor power; negative m gives powers of the dual."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"power exponent must be an integer, got {m!r}")
    return normalize(m * L.e, [m * b for b in L.betas], L.orbifold)


def h0(L: LineBundleData) -> int:
    """Dimension of the space of holomorphic sections.

    On a genus-zero base, sections of the orbifold bundle are the sections of
    its desingularisation, so h^0 = e + 1 when the desingularised degree e is
    non-negative and 0 otherwise.
    """
    return max(0, L.e + 1)


def _h0_sum(degrees: list[int]) -> int:
    """Sum of h^0 = max(0, e + 1) over desingularised degrees e."""
    return sum(e + 1 for e in degrees if e >= 0)


def _walk(
    G: LineBundleData, count: int, keep: int = 0
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Normalized data of the powers G^0, G^1, ..., G^(count - 1), in integers.

    Returns the desingularised degree e of every G^l, and the residues of
    each effective G^l (e >= 0) with l < keep.  G^(l+1) = G^l tensor G is
    reached by adding G's data: a residue that reaches alpha_i gives alpha_i
    back and adds 1 to e, the carry of :func:`normalize`.

    The residue of G^l at fiber i is l*beta_i mod alpha_i, periodic in l
    with period alpha_i, and so is the carry (l*beta_i mod alpha_i +
    beta_i) // alpha_i into e.  Both are tabled once per period, G's own e
    folded into the first fiber's carries; when the first two periods'
    product alpha_1*alpha_2 is below ``count``, their carry tables merge
    into one of that period, one addition per power fewer.  The per-l sums
    run in C-level iterators, and the degrees are one list of ``count``
    integers, which the divisor p_g and the moduli side both read.
    """
    if count <= 0:
        return [], {}
    residue_tables = [
        [j * b % a for j in range(a)] for a, b in zip(G.orbifold.alphas, G.betas)
    ]
    carries = [
        [(r + b) // a for r in table]
        for a, b, table in zip(G.orbifold.alphas, G.betas, residue_tables)
    ]
    carries[0] = [G.e + c for c in carries[0]]
    if len(carries) >= 2:
        period = len(carries[0]) * len(carries[1])
        if period < count:  # the first two tables merge into one of their period
            pair = map(add, cycle(carries[0]), cycle(carries[1]))
            carries[:2] = [list(islice(pair, period))]
    steps = cycle(carries[0])
    for carry in carries[1:]:
        steps = map(add, steps, cycle(carry))
    degrees = list(accumulate(islice(steps, count - 1), initial=0))  # G^0 is trivial
    effective = map((0).__le__, islice(degrees, max(keep, 0)))
    residues = dict(compress(enumerate(zip(*map(cycle, residue_tables))), effective))
    return degrees, residues


def _exponent(scaled: int, A: int, vector: tuple[int, ...]) -> int:
    """m from m*A, which must be a non-negative multiple of A."""
    m, rem = divmod(scaled, A)
    if rem or m < 0:
        from fractions import Fraction

        raise ConsistencyError(
            f"exponent {Fraction(scaled, A)} for vector {vector} is not a non-negative integer"
        )
    return m


def _prefixes(C: Orbifold) -> list[tuple[int, int, tuple[int, ...]]]:
    """The scan over the residues of the first n - 1 fibers.

    One (acc, frac, betas) per prefix (beta_1..beta_(n-1)) whose scaled
    partial degree acc = sum_i beta_i*A/alpha_i is below A*deg K, in
    lexicographic order; frac = sum_i ((beta_i + 1) mod alpha_i) * A/alpha_i
    is the prefix's share of m*A.  Each fiber's residues stop at the first
    one that reaches the bound.  On one fiber the only prefix is the empty
    one.
    """
    limit = C.scaled_deg_k
    prefixes = [(0, 0, ())]
    for a, step in zip(C.alphas[:-1], C.cofactors[:-1]):
        grown = []
        append = grown.append
        for acc, frac, betas in prefixes:
            for beta in range(a):
                nxt = acc + beta * step
                if nxt >= limit:
                    break
                # {(beta + 1)/a} * A = ((beta + 1) mod a) * A/a
                append((nxt, frac + (beta + 1) % a * step, betas + (beta,)))
        prefixes = grown
    return prefixes
