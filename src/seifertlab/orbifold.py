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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Orbifold",
    "LineBundleData",
    "orbifold_euler_char",
    "canonical_bundle",
    "trivial_bundle",
    "normalize",
    "tensor",
    "dual",
    "power",
    "h0",
]


@dataclass(frozen=True)
class Orbifold:
    """Genus-zero 2-orbifold with cone points of orders alphas (each >= 2)."""

    alphas: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(self.alphas))
        if len(self.alphas) < 1:
            raise ValueError("an orbifold needs at least one cone point here")
        for a in self.alphas:
            if not isinstance(a, int) or a < 2:
                raise ValueError(f"isotropy orders must be integers >= 2, got {a!r}")

    @property
    def n(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class LineBundleData:
    """Normalized classification data (e; beta_1, ..., beta_n) of a line bundle.

    The constructor insists on normalized residues; use :func:`normalize` to
    canonicalize raw data.  Values are immutable and safe to share.
    """

    e: int
    betas: tuple[int, ...]
    orbifold: Orbifold = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "betas", tuple(self.betas))
        if len(self.betas) != self.orbifold.n:
            raise ValueError("one residue per cone point required")
        for b, a in zip(self.betas, self.orbifold.alphas):
            if not isinstance(b, int) or not 0 <= b < a:
                raise ValueError(f"residue {b!r} not normalized for isotropy order {a}")

    @property
    def degree(self) -> Fraction:
        """Orbifold degree e + sum beta_i/alpha_i (exact)."""
        return self.e + sum(
            (Fraction(b, a) for b, a in zip(self.betas, self.orbifold.alphas)),
            Fraction(0),
        )

    def as_dict(self) -> dict:
        return {"e": self.e, "betas": list(self.betas)}


def orbifold_euler_char(C: Orbifold) -> Fraction:
    """Orbifold Euler characteristic chi(C) = 2 - n + sum 1/alpha_i."""
    return 2 - C.n + sum((Fraction(1, a) for a in C.alphas), Fraction(0))


def canonical_bundle(C: Orbifold) -> LineBundleData:
    """The canonical bundle K, with data (-2; alpha_1 - 1, ..., alpha_n - 1).

    Its orbifold degree equals -chi(C).
    """
    return LineBundleData(-2, tuple(a - 1 for a in C.alphas), C)


def trivial_bundle(C: Orbifold) -> LineBundleData:
    return LineBundleData(0, (0,) * C.n, C)


def normalize(e: int, raw_betas: Sequence[int], C: Orbifold) -> LineBundleData:
    """Reduce raw residues mod alpha_i into [0, alpha_i), carrying into e.

    The orbifold degree is preserved: each unit carried out of a residue slot
    adds exactly 1 to e.
    """
    carried = e
    betas = []
    for raw, a in zip(raw_betas, C.alphas):
        q, r = divmod(raw, a)
        carried += q
        betas.append(r)
    if len(betas) != C.n:
        raise ValueError("one raw residue per cone point required")
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
    if not isinstance(m, int):
        raise ValueError(f"power exponent must be an integer, got {m!r}")
    return normalize(m * L.e, [m * b for b in L.betas], L.orbifold)


def dual(L: LineBundleData) -> LineBundleData:
    return power(L, -1)


def h0(L: LineBundleData) -> int:
    """Dimension of the space of holomorphic sections.

    On a genus-zero base, sections of the orbifold bundle are the sections of
    its desingularisation, so h^0 = e + 1 when the desingularised degree e is
    non-negative and 0 otherwise.
    """
    return max(0, L.e + 1)


def _walk(
    G: LineBundleData, count: int, keep: int = 0
) -> tuple[list[int], dict[int, tuple[int, ...]]]:
    """Normalized data of the powers G^0, G^1, ..., G^(count - 1), in integers.

    Returns the desingularised degree e of every G^l, and the residues of
    each effective G^l (e >= 0) with l < keep.  G^(l+1) = G^l tensor G is
    reached by adding G's data: a residue that reaches alpha_i gives alpha_i
    back and adds 1 to e, the carry of :func:`normalize`.
    """
    step_e, steps, alphas = G.e, G.betas, G.orbifold.alphas
    fibers = range(len(alphas))
    betas = [0] * len(alphas)
    e = 0  # G^0 is trivial
    degrees: list[int] = []
    residues: dict[int, tuple[int, ...]] = {}
    for l in range(count):
        degrees.append(e)
        if e >= 0 and l < keep:
            residues[l] = tuple(betas)
        e += step_e
        for i in fibers:
            beta = betas[i] + steps[i]
            if beta >= alphas[i]:
                beta -= alphas[i]
                e += 1
            betas[i] = beta
    return degrees, residues
