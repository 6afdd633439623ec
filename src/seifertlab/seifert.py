"""Seifert data of fibrations Y = S(N) -> S^2(alpha_1, ..., alpha_n).

Conventions: data (b; (alpha_1, gamma_1), ..., (alpha_n, gamma_n)) with
0 < gamma_i < alpha_i and gcd(alpha_i, gamma_i) = 1.  The Euler number is
e(Y) = b + sum gamma_i/alpha_i, which is also the orbifold degree of the
line bundle N whose unit circle bundle is Y.  With A = prod alpha_i, the
total space is an integral homology sphere iff A*e(Y) = +-1; the
link-of-a-singularity orientation has A*e(Y) = -1, i.e. deg N < 0.

On a homology sphere N generates the topological Picard group of the base,
so every line bundle is a power of N; ``bundle_log`` inverts that power map.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, prod
from typing import TYPE_CHECKING, Sequence

from .errors import ConsistencyError
from .orbifold import LineBundleData, Orbifold, normalize, power

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "SeifertData",
    "pairwise_coprime",
    "brieskorn_seifert_data",
    "require_homology_sphere",
    "n_bundle",
    "bundle_log",
]


def _integer(value, what: str) -> int:
    """value itself when it is an int (a bool is none); ValueError naming it otherwise."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def pairwise_coprime(values: Sequence[int]) -> bool:
    return all(
        gcd(values[i], values[j]) == 1
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


class SeifertData(namedtuple("SeifertData", "b fibers orbifold a_times_e")):
    """Seifert invariants (b; (alpha_i, gamma_i)) of an oriented fibration over S^2.

    The constructor takes (b, fibers) and computes the other two fields: the
    base ``orbifold``, built once with the fibration, and ``a_times_e``, the
    integer A*e(Y) = b*A + sum gamma_i*A/alpha_i.  Both are functions of
    (b, fibers), so two fibrations are equal, and hash equal, exactly when
    their (b, fibers) are; the repr shows all four fields.
    """

    __slots__ = ()

    def __new__(cls, b: int, fibers: Sequence[tuple[int, int]]):
        b = _integer(b, "b")
        fibers = tuple(
            (_integer(a, "fiber multiplicity"), _integer(g, "fiber invariant"))
            for a, g in fibers
        )
        if not fibers:
            raise ValueError("at least one exceptional fiber required")
        for a, g in fibers:
            if a < 2:
                raise ValueError(f"fiber multiplicity {a} must be >= 2")
            if not 0 < g < a:
                raise ValueError(f"fiber pair ({a},{g}) violates 0 < gamma < alpha")
            if gcd(a, g) != 1:
                raise ValueError(f"fiber pair ({a},{g}) is not coprime")
        C = Orbifold(tuple(a for a, _ in fibers))
        a_times_e = b * C.scale + sum(g * c for (_, g), c in zip(fibers, C.cofactors))
        if a_times_e == 0:
            raise ValueError("Euler number e(Y) must be nonzero")
        return tuple.__new__(cls, (b, fibers, C, a_times_e))

    def __getnewargs__(self):
        # copy and pickle rebuild the record through the constructor's checks
        return self.b, self.fibers

    @property
    def alphas(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.fibers)

    @property
    def gammas(self) -> tuple[int, ...]:
        return tuple(g for _, g in self.fibers)

    @property
    def euler_number(self) -> Fraction:
        """e(Y) = b + sum gamma_i/alpha_i = deg N, as A*e(Y) over A."""
        from fractions import Fraction

        return Fraction(self.a_times_e, self.orbifold.scale)

    def as_dict(self) -> dict:
        return {"b": self.b, "fibers": [[a, g] for a, g in self.fibers]}


def brieskorn_seifert_data(alphas: Sequence[int]) -> SeifertData:
    """Seifert data of the Brieskorn sphere Sigma(alpha_1, ..., alpha_n).

    Solves for the unique (b, gamma_i) with 0 < gamma_i < alpha_i and
    A * e(Y) = -1 (singularity-link orientation): gamma_i is the residue of
    -(A/alpha_i)^(-1) mod alpha_i, then b = (-1 - sum gamma_i * A/alpha_i)/A.
    """
    alphas = tuple(_integer(a, "multiplicity") for a in alphas)
    if len(alphas) < 3:
        raise ValueError("need at least 3 multiplicities (fewer is lens-space territory)")
    if any(a < 2 for a in alphas):
        raise ValueError("multiplicities must be >= 2")
    if not pairwise_coprime(alphas):
        raise ValueError(f"multiplicities {alphas} are not pairwise coprime")
    A = prod(alphas)
    cofactors = [A // a for a in alphas]
    gammas = [(-pow(c, -1, a)) % a for a, c in zip(alphas, cofactors)]
    weighted = sum(g * c for g, c in zip(gammas, cofactors))
    if (-1 - weighted) % A != 0:
        raise ConsistencyError("congruence solution failed to make A*e(Y) = -1")
    b = (-1 - weighted) // A
    return SeifertData(b, tuple(zip(alphas, gammas)))


def require_homology_sphere(S: SeifertData) -> int:
    """A*e(Y) = +-1 of an integral homology sphere; ValueError naming A*e(Y) otherwise."""
    if abs(S.a_times_e) != 1:
        raise ValueError(f"not an integral homology sphere: A*e(Y) = {S.a_times_e}")
    return S.a_times_e


def n_bundle(S: SeifertData) -> LineBundleData:
    """The line bundle N with S(N) = Y: normalized data of (b; gamma_1..gamma_n).

    Its orbifold degree equals e(Y).
    """
    return normalize(S.b, S.gammas, S.orbifold)


def bundle_log(L: LineBundleData, S: SeifertData) -> int:
    """The unique integer m with N^m = L, for Y an integral homology sphere.

    The degree ratio deg L / deg N fixes the candidate power; with
    deg N = a_e/A and a_e = A*e(Y) = +-1 it is the integer
    m = (e*A + sum beta_i * A/alpha_i) * a_e.  The result is then confirmed
    on normalized data: a mismatch after powering means the bundle lives on a
    different orbifold than N (or the data is corrupt).
    """
    a_e = require_homology_sphere(S)
    N = n_bundle(S)
    if L.orbifold != N.orbifold:
        raise ValueError("bundle lives on a different orbifold than the fibration")
    C = S.orbifold
    m = (L.e * C.scale + sum(b * c for b, c in zip(L.betas, C.cofactors))) * a_e
    if power(N, m) != L:
        raise ConsistencyError(f"N^{m} does not reproduce the bundle data {L.as_dict()}")
    return m
